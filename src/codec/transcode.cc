#include "codec/transcode.h"

#include "codec/decoder.h"
#include "common/status.h"
#include "video/generate.h"

namespace vtrans::codec {

EncoderParams
mezzanineParams()
{
    // High-quality mezzanine: near-lossless CRF with solid analysis but
    // bounded cost (this runs outside the measured region in benches).
    EncoderParams params = presetParams("medium");
    params.rc = RateControl::CRF;
    params.crf = 10;
    params.refs = 2;
    params.subme = 4;
    params.codegen = activeCodegen();
    return params;
}

std::vector<uint8_t>
makeSourceStream(const video::VideoSpec& spec)
{
    const EncoderParams params = mezzanineParams();
    const auto frames = video::generateVideo(spec);
    Encoder encoder(params, spec.fps);
    return encoder.encode(frames);
}

TranscodeResult
transcode(const std::vector<uint8_t>& input, const EncoderParams& params)
{
    const CodegenScope codegen(params);
    DecodeResult decoded = decode(input);
    VT_ASSERT(!decoded.frames.empty(), "input stream decoded to no frames");

    TranscodeResult result;
    result.width = decoded.width;
    result.height = decoded.height;
    result.fps = decoded.fps;
    result.frame_count = static_cast<int>(decoded.frames.size());

    Encoder encoder(params, static_cast<double>(decoded.fps));
    result.output = encoder.encode(decoded.frames, &result.stats);
    return result;
}

} // namespace vtrans::codec
