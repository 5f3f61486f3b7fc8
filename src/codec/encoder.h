#ifndef VTRANS_CODEC_ENCODER_H_
#define VTRANS_CODEC_ENCODER_H_

/**
 * @file
 * The VX1 encoder: the x264 stand-in whose option surface (crf, refs,
 * presets, rate-control modes, ME methods, partitions, trellis, aq,
 * deblock) mirrors the parameters the paper sweeps. See DESIGN.md §2.
 */

#include <cstdint>
#include <vector>

#include "codec/params.h"
#include "codec/ratecontrol.h"
#include "video/frame.h"

namespace vtrans::codec {

/** Per-frame encode record. */
struct FrameStat
{
    int display_index = 0;
    FrameType type = FrameType::P;
    int qp = 0;
    uint64_t bits = 0;
    double psnr = 0.0;
};

/** Aggregate statistics of one encode. */
struct EncodeStats
{
    uint64_t total_bits = 0;
    double bitrate_kbps = 0.0;   ///< total_bits / clip duration.
    double psnr = 0.0;           ///< Mean reconstruction PSNR (dB).
    int i_frames = 0;
    int p_frames = 0;
    int b_frames = 0;
    uint64_t mb_skip = 0;
    uint64_t mb_inter16 = 0;
    uint64_t mb_inter8x8 = 0;
    uint64_t mb_intra16 = 0;
    uint64_t mb_intra4 = 0;
    uint64_t me_candidates = 0;  ///< Full+sub-pel candidates evaluated.
    int vbv_violations = 0;
    std::vector<FrameStat> frames;
};

/**
 * Encodes raw YUV420 frame sequences into VX1 bitstreams.
 *
 * A single Encoder instance encodes one sequence per call; TwoPass rate
 * control internally runs a fast first pass (dia / subme 2 / no trellis,
 * as x264's fast first pass does) to gather per-frame statistics.
 */
class Encoder
{
  public:
    /**
     * @param params Validated encoder parameters.
     * @param fps Frame rate of the sequence (rate control budgeting).
     */
    Encoder(const EncoderParams& params, double fps);

    /**
     * Encodes a sequence on the params' codegen (CodegenScope).
     * @param frames Input frames in display order (all same geometry).
     * @param stats Optional aggregate statistics out-param.
     * @return The coded bitstream.
     */
    std::vector<uint8_t> encode(const std::vector<video::Frame>& frames,
                                EncodeStats* stats = nullptr);

  private:
    EncoderParams params_;
    double fps_;
};

} // namespace vtrans::codec

#endif // VTRANS_CODEC_ENCODER_H_
