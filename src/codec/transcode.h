#ifndef VTRANS_CODEC_TRANSCODE_H_
#define VTRANS_CODEC_TRANSCODE_H_

/**
 * @file
 * Transcoding (paper §II-A): decode an encoded video into raw frames,
 * then re-encode those frames with different parameters. This is the
 * workload every experiment in the paper profiles.
 */

#include <cstdint>
#include <vector>

#include "codec/encoder.h"
#include "codec/params.h"
#include "video/spec.h"

namespace vtrans::codec {

/** Outcome of one transcode operation. */
struct TranscodeResult
{
    EncodeStats stats;            ///< Re-encode statistics (bits, PSNR...).
    std::vector<uint8_t> output;  ///< The transcoded bitstream.
    int width = 0;
    int height = 0;
    int fps = 0;
    int frame_count = 0;

    /** Transcoded video quality: PSNR of output vs the decoded input. */
    double psnr() const { return stats.psnr; }
    /** Transcoded file size in kilobits per second. */
    double bitrateKbps() const { return stats.bitrate_kbps; }
};

/**
 * The near-lossless parameter set mezzanine streams are encoded with
 * (crf 10, bounded analysis cost) — shared by `makeSourceStream` and the
 * chunk splitter's per-segment slice encodes so chunk inputs match the
 * whole-clip mezzanine grade. Its codegen is the calling thread's active
 * one: the grade's bytes are the same on every codegen, so a mezzanine
 * encode runs the code of the run that needs it.
 */
EncoderParams mezzanineParams();

/**
 * Produces a "mezzanine" source stream for a video spec: the synthetic
 * clip encoded at high quality (crf 10, veryslow-ish analysis), standing
 * in for the high-quality uploads streaming providers transcode from.
 */
std::vector<uint8_t> makeSourceStream(const video::VideoSpec& spec);

/** Decodes `input` and re-encodes it with `params`, both halves on
 *  `params.codegen`. */
TranscodeResult transcode(const std::vector<uint8_t>& input,
                          const EncoderParams& params);

} // namespace vtrans::codec

#endif // VTRANS_CODEC_TRANSCODE_H_
