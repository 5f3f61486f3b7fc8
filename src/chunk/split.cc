#include "chunk/chunk.h"

#include <algorithm>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/lookahead.h"
#include "codec/transcode.h"
#include "common/status.h"

namespace vtrans::chunk {

SplitPlan
split(const std::vector<uint8_t>& mezzanine,
      const codec::EncoderParams& target, const ChunkOptions& opts)
{
    // Decode, planning and the slice encodes all run the target's code.
    const codec::CodegenScope codegen(target);
    const codec::DecodeResult decoded = codec::decode(mezzanine);
    VT_ASSERT(!decoded.frames.empty(), "mezzanine decoded to no frames");

    SplitPlan plan;
    plan.width = decoded.width;
    plan.height = decoded.height;
    plan.fps = decoded.fps;
    plan.total_frames = static_cast<int>(decoded.frames.size());

    // Boundary decision: the target's own lookahead rules (scenecut,
    // B-frame adaptation), with the chunking spacing as the keyint. The
    // plan is computed once, on the full clip, so the boundary set is by
    // construction identical for every chunk count.
    codec::EncoderParams planning = target;
    if (opts.chunk_frames > 0) {
        planning.keyint = opts.chunk_frames;
    }
    const auto types = codec::planFrameTypes(decoded.frames, planning);
    for (const auto& f : types) {
        if (f.type == codec::FrameType::I) {
            plan.boundaries.push_back(f.display_index);
        }
    }
    VT_ASSERT(!plan.boundaries.empty() && plan.boundaries.front() == 0,
              "frame-type plan must open with an I frame");

    // Re-encode each segment as a self-contained mezzanine-grade slice:
    // the same near-lossless parameter set the whole-clip mezzanine uses,
    // so chunk jobs stay pure bitstream-in/bitstream-out work with no
    // shared pixel state.
    const codec::EncoderParams slice_params = codec::mezzanineParams();
    for (size_t b = 0; b < plan.boundaries.size(); ++b) {
        Segment seg;
        seg.first_frame = plan.boundaries[b];
        const int end = b + 1 < plan.boundaries.size()
                            ? plan.boundaries[b + 1]
                            : plan.total_frames;
        seg.frame_count = end - seg.first_frame;
        VT_ASSERT(seg.frame_count > 0, "empty segment at frame ",
                  seg.first_frame);
        std::vector<video::Frame> frames(
            decoded.frames.begin() + seg.first_frame,
            decoded.frames.begin() + end);
        codec::Encoder encoder(slice_params,
                               static_cast<double>(decoded.fps));
        seg.source = encoder.encode(frames);
        plan.segments.push_back(std::move(seg));
    }
    return plan;
}

std::vector<std::pair<int, int>>
groupSegments(size_t segments, int max_chunks)
{
    std::vector<std::pair<int, int>> groups;
    if (segments == 0) {
        return groups;
    }
    size_t chunks = max_chunks <= 0 ? segments
                                    : static_cast<size_t>(max_chunks);
    chunks = std::min(chunks, segments);
    const size_t base = segments / chunks;
    const size_t extra = segments % chunks;
    int first = 0;
    for (size_t c = 0; c < chunks; ++c) {
        const int count = static_cast<int>(base + (c < extra ? 1 : 0));
        groups.emplace_back(first, count);
        first += count;
    }
    return groups;
}

} // namespace vtrans::chunk
