/**
 * @file
 * Property-based parameterized sweeps over the codec: for every sampled
 * combination of content complexity and encoder parameters, the defining
 * invariants must hold — decodability, encoder/decoder reconstruction
 * agreement, determinism, quality/size monotonicity, and syntax-level
 * robustness of the bitstream reader.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/params.h"
#include "codec/syntax.h"
#include "common/rng.h"
#include "video/generate.h"
#include "video/quality.h"

namespace vtrans {
namespace {

using codec::Encoder;
using codec::EncoderParams;
using video::Frame;
using video::VideoSpec;

VideoSpec
spec(double entropy, int frames = 8, uint64_t seed = 42)
{
    VideoSpec s;
    s.name = "prop";
    s.width = 48;
    s.height = 32;
    s.fps = 30;
    s.seconds = frames / 30.0;
    s.entropy = entropy;
    s.seed = seed;
    return s;
}

// ---- Roundtrip invariants over (entropy x crf) -----------------------------

class EntropyCrfProperty
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(EntropyCrfProperty, DecodesToEncoderReconstruction)
{
    const auto [entropy, crf] = GetParam();
    const VideoSpec s = spec(entropy);
    const auto frames = video::generateVideo(s);

    EncoderParams p = codec::presetParams("medium");
    p.crf = crf;
    Encoder enc(p, s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);

    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());

    // The decoder output must equal the encoder's internal
    // reconstruction: per-frame PSNR against the source must agree.
    double total = 0.0;
    for (size_t i = 0; i < frames.size(); ++i) {
        total += video::framePsnr(frames[i], decoded.frames[i]);
    }
    EXPECT_NEAR(total / frames.size(), stats.psnr, 0.5)
        << "entropy " << entropy << " crf " << crf;
}

TEST_P(EntropyCrfProperty, EncodeIsDeterministic)
{
    const auto [entropy, crf] = GetParam();
    const VideoSpec s = spec(entropy);
    const auto frames = video::generateVideo(s);

    EncoderParams p = codec::presetParams("medium");
    p.crf = crf;
    const auto a = Encoder(p, s.fps).encode(frames);
    const auto b = Encoder(p, s.fps).encode(frames);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EntropyCrfProperty,
    ::testing::Combine(::testing::Values(0.2, 3.5, 7.7),
                       ::testing::Values(5, 23, 40, 51)));

// ---- Rate-control modes x content -----------------------------------------

class RcModeProperty
    : public ::testing::TestWithParam<codec::RateControl>
{
};

TEST_P(RcModeProperty, ProducesDecodableSaneStream)
{
    const VideoSpec s = spec(4.0, 12);
    const auto frames = video::generateVideo(s);

    EncoderParams p = codec::presetParams("medium");
    p.rc = GetParam();
    p.bitrate_kbps = 400.0;
    p.vbv_maxrate_kbps = 500.0;
    p.vbv_buffer_kbits = 250.0;
    Encoder enc(p, s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);

    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 20.0)
        << codec::toString(GetParam());
    EXPECT_GT(stats.total_bits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RcModeProperty,
    ::testing::Values(codec::RateControl::CQP, codec::RateControl::CRF,
                      codec::RateControl::ABR,
                      codec::RateControl::TwoPass,
                      codec::RateControl::CBR, codec::RateControl::VBV));

// ---- Preset ladder ----------------------------------------------------------

class PresetProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetProperty, RoundtripsAtTableIIRefs)
{
    const VideoSpec s = spec(3.0, 6);
    const auto frames = video::generateVideo(s);

    // Use the preset's own refs column too (Table II bottom row).
    EncoderParams p = codec::presetParams(GetParam(), true);
    Encoder enc(p, s.fps);
    const auto stream = enc.encode(frames);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 24.0)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Ladder, PresetProperty,
                         ::testing::Values("ultrafast", "superfast",
                                           "veryfast", "faster", "fast",
                                           "medium", "slow", "slower"));

// ---- Bitstream robustness ----------------------------------------------------

TEST(DecoderRobustness, RejectsBadMagic)
{
    std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0};
    EXPECT_DEATH(codec::decode(junk), "not a VX1 stream");
}

TEST(DecoderRobustness, RejectsTruncatedStream)
{
    const VideoSpec s = spec(2.0, 4);
    const auto frames = video::generateVideo(s);
    Encoder enc(codec::presetParams("medium"), s.fps);
    auto stream = enc.encode(frames);
    stream.resize(stream.size() / 3); // chop mid-frame
    EXPECT_DEATH(codec::decode(stream), "bitstream underrun");
}

TEST(DecoderRobustness, RejectsEmptyInput)
{
    std::vector<uint8_t> empty;
    EXPECT_DEATH(codec::decode(empty), "underrun");
}

/** Bit offset of the first list-0 reference index in `stream`. Walks the
 *  VX1 syntax (codec/syntax.h) through a leading I frame to the first
 *  macroblock of the P frame after it, which must be inter-coded: its
 *  mode is followed directly by a reference index. */
uint64_t
firstRefIndexBit(const std::vector<uint8_t>& stream)
{
    codec::BitReader br(stream);
    EXPECT_EQ(br.getBits(32), codec::kMagic);
    const uint32_t mbs = br.getUe() * br.getUe();
    br.getUe(); // fps
    br.getUe(); // frame_count
    br.getUe(); // deblock flag
    br.getSe(); // alpha offset
    br.getSe(); // beta offset
    const auto frame_type = [&br] {
        const uint32_t type = br.getUe();
        br.getUe(); // display index
        br.getUe(); // qp
        br.getUe(); // num_ref
        return type;
    };
    EXPECT_EQ(frame_type(), 0u) << "stream does not start with an I frame";
    for (uint32_t mb = 0; mb < mbs; ++mb) {
        const int intra_modes = br.getUe() == 0 ? 1 : 16;
        for (int i = 0; i < intra_modes; ++i) {
            br.getUe();
        }
        br.getSe(); // qp delta
        const uint32_t cbp = br.getUe();
        for (int group = 0; group < 6; ++group) {
            for (int b = 0; ((cbp >> group) & 1) != 0 && b < 4; ++b) {
                const uint32_t nnz = br.getUe();
                for (uint32_t i = 0; i < nnz; ++i) {
                    br.getUe(); // run
                    br.getSe(); // level
                }
            }
        }
    }
    EXPECT_EQ(frame_type(), 1u) << "second coded frame is not a P frame";
    const auto mode = static_cast<codec::MbMode>(br.getUe());
    EXPECT_TRUE(mode == codec::MbMode::Inter16
                || mode == codec::MbMode::Inter8x8)
        << "first P macroblock codes no reference index";
    return br.bitPosition();
}

/** `bytes` with the low `count` bits of `bits` (MSB first) inserted
 *  before bit `pos`; later bits shift along, zero-padded at the end. */
std::vector<uint8_t>
insertBits(const std::vector<uint8_t>& bytes, uint64_t pos, uint32_t bits,
           int count)
{
    std::vector<uint8_t> out((bytes.size() * 8 + count + 7) / 8, 0);
    uint64_t o = 0;
    const auto put = [&](uint32_t bit) {
        out[o / 8] |= static_cast<uint8_t>(bit << (7 - o % 8));
        ++o;
    };
    for (uint64_t i = 0; i < bytes.size() * 8; ++i) {
        for (int k = count - 1; i == pos && k >= 0; --k) {
            put((bits >> k) & 1);
        }
        put((bytes[i / 8] >> (7 - i % 8)) & 1);
    }
    return out;
}

TEST(DecoderRobustness, RejectsOutOfRangeReferenceIndex)
{
    // A real single-reference stream (no B frames, so the second coded
    // frame is a P frame) whose first P macroblock then says ref 2:
    // ue(0) = "1" becomes ue(2) = "011". The decoder must reject the
    // index while parsing rather than read past its reference list.
    const VideoSpec s = spec(2.0, 2);
    const auto frames = video::generateVideo(s);
    EncoderParams p = codec::presetParams("ultrafast");
    p.refs = 1;
    p.bframes = 0;
    Encoder enc(p, s.fps);
    const auto stream = enc.encode(frames);
    ASSERT_EQ(codec::decode(stream).frames.size(), frames.size());

    const uint64_t pos = firstRefIndexBit(stream);
    ASSERT_FALSE(::testing::Test::HasFailure());
    ASSERT_EQ((stream[pos / 8] >> (7 - pos % 8)) & 1, 1) << "ref is not 0";
    const auto patched = insertBits(stream, pos, 0b01, 2);
    EXPECT_DEATH(codec::decode(patched), "corrupt reference index 2");
}

// ---- Edge-geometry and content edge cases -----------------------------------

TEST(CodecEdge, SingleMacroblockFrame)
{
    VideoSpec s = spec(3.0, 4);
    s.width = 16;
    s.height = 16;
    const auto frames = video::generateVideo(s);
    Encoder enc(codec::presetParams("medium"), s.fps);
    const auto stream = enc.encode(frames);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 20.0);
}

TEST(CodecEdge, SingleFrameClip)
{
    const VideoSpec s = spec(3.0, 1);
    const auto frames = video::generateVideo(s);
    Encoder enc(codec::presetParams("medium"), s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);
    EXPECT_EQ(stats.i_frames, 1);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), 1u);
}

TEST(CodecEdge, FlatContentCompressesExtremely)
{
    std::vector<Frame> frames;
    for (int i = 0; i < 6; ++i) {
        frames.emplace_back(48, 32);
        frames.back().fill(128, 128, 128);
    }
    Encoder enc(codec::presetParams("medium"), 30.0);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);
    // A static gray clip must cost almost nothing after the first frame.
    const auto decoded = codec::decode(stream);
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 45.0);
    EXPECT_LT(stats.total_bits / frames.size(), 2000u);
    EXPECT_GT(stats.mb_skip, 0u) << "static content must produce skips";
}

TEST(CodecEdge, NoiseContentStaysDecodable)
{
    Rng rng(99);
    std::vector<Frame> frames;
    for (int i = 0; i < 4; ++i) {
        frames.emplace_back(48, 32);
        for (int y = 0; y < 32; ++y) {
            for (int x = 0; x < 48; ++x) {
                frames.back().at(video::Plane::Y, x, y) =
                    static_cast<uint8_t>(rng.below(256));
            }
        }
    }
    EncoderParams p = codec::presetParams("medium");
    p.crf = 30;
    Encoder enc(p, 30.0);
    const auto stream = enc.encode(frames);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
}

TEST(CodecEdge, LongGopWithManyBframes)
{
    const VideoSpec s = spec(1.0, 24, 7);
    const auto frames = video::generateVideo(s);
    EncoderParams p = codec::presetParams("veryslow"); // bframes 8
    p.subme = 4;                                       // keep it quick
    p.me = codec::MeMethod::Hex;
    p.b_adapt = 0; // fixed pattern: force the long B runs this test wants
    Encoder enc(p, s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);
    EXPECT_GT(stats.b_frames, stats.p_frames)
        << "8 B-frames between anchors on calm content";
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 28.0);
}

} // namespace
} // namespace vtrans
