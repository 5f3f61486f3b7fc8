/**
 * @file
 * Unit tests for codec building blocks: bitstream coding, transform/
 * quantization, pixel kernels, intra prediction, motion estimation,
 * trellis quantization, presets, and the lookahead planner.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <string>

#include "codec/bitstream.h"
#include "codec/dct.h"
#include "codec/intra.h"
#include "codec/lookahead.h"
#include "codec/me.h"
#include "codec/mv.h"
#include "codec/params.h"
#include "codec/pixel.h"
#include "codec/tables.h"
#include "codec/trellis.h"
#include "common/rng.h"
#include "video/frame.h"

namespace vtrans {
namespace {

using codec::BitReader;
using codec::BitWriter;
using video::Frame;
using video::Plane;

// ---- Bitstream ---------------------------------------------------------

TEST(Bitstream, BitsRoundtrip)
{
    BitWriter bw;
    bw.putBits(0x5, 3);
    bw.putBits(0xABCD, 16);
    bw.putBits(1, 1);
    bw.putBits(0xFFFFFFFF, 32);
    const auto& bytes = bw.finish();

    BitReader br(bytes);
    EXPECT_EQ(br.getBits(3), 0x5u);
    EXPECT_EQ(br.getBits(16), 0xABCDu);
    EXPECT_EQ(br.getBits(1), 1u);
    EXPECT_EQ(br.getBits(32), 0xFFFFFFFFu);
}

TEST(Bitstream, UeRoundtripExhaustiveSmall)
{
    BitWriter bw;
    for (uint32_t v = 0; v < 1000; ++v) {
        bw.putUe(v);
    }
    BitReader br(bw.finish());
    for (uint32_t v = 0; v < 1000; ++v) {
        ASSERT_EQ(br.getUe(), v);
    }
}

TEST(Bitstream, SeRoundtrip)
{
    BitWriter bw;
    for (int32_t v = -500; v <= 500; ++v) {
        bw.putSe(v);
    }
    BitReader br(bw.finish());
    for (int32_t v = -500; v <= 500; ++v) {
        ASSERT_EQ(br.getSe(), v);
    }
}

TEST(Bitstream, UeLargeValues)
{
    BitWriter bw;
    const uint32_t values[] = {1 << 10, 1 << 16, (1u << 20) + 12345,
                               0x7fffffff};
    for (uint32_t v : values) {
        bw.putUe(v);
    }
    BitReader br(bw.finish());
    for (uint32_t v : values) {
        ASSERT_EQ(br.getUe(), v);
    }
}

TEST(Bitstream, UeBitsMatchesWriter)
{
    for (uint32_t v : {0u, 1u, 2u, 7u, 8u, 100u, 4095u}) {
        BitWriter bw;
        bw.putUe(v);
        EXPECT_EQ(bw.bitCount(), static_cast<uint64_t>(codec::ueBits(v)))
            << "ueBits disagrees with the writer for " << v;
    }
}

TEST(Bitstream, AlignPadsToByte)
{
    BitWriter bw;
    bw.putBits(1, 3);
    bw.align();
    EXPECT_EQ(bw.bitCount(), 8u);
    bw.putBits(0xAA, 8);
    const auto& bytes = bw.finish();
    EXPECT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[1], 0xAA);
}

// ---- Transform / quantization -------------------------------------------

TEST(Dct, ForwardInverseIsIdentityWithoutQuant)
{
    // forward -> (exact dequant-free inverse path) requires quant/dequant;
    // at QP 0 with small inputs the roundtrip error must be tiny.
    Rng rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        int16_t blk[16];
        int16_t orig[16];
        for (int i = 0; i < 16; ++i) {
            orig[i] = blk[i] = static_cast<int16_t>(rng.range(-64, 64));
        }
        codec::forwardDct4x4(blk);
        codec::quantize4x4(blk, 0, false);
        codec::dequantize4x4(blk, 0);
        codec::inverseDct4x4(blk);
        for (int i = 0; i < 16; ++i) {
            EXPECT_NEAR(blk[i], orig[i], 2) << "position " << i;
        }
    }
}

TEST(Dct, HighQpQuantizesToZero)
{
    int16_t blk[16];
    for (int i = 0; i < 16; ++i) {
        blk[i] = static_cast<int16_t>((i % 3) - 1); // tiny residual
    }
    codec::forwardDct4x4(blk);
    const int nnz = codec::quantize4x4(blk, 51, false);
    EXPECT_EQ(nnz, 0);
}

TEST(Dct, QuantErrorGrowsWithQp)
{
    Rng rng(7);
    double prev_err = -1.0;
    for (int qp : {4, 16, 28, 40}) {
        double err = 0.0;
        Rng local(99);
        for (int trial = 0; trial < 50; ++trial) {
            int16_t blk[16];
            int16_t orig[16];
            for (int i = 0; i < 16; ++i) {
                orig[i] = blk[i] =
                    static_cast<int16_t>(local.range(-100, 100));
            }
            codec::forwardDct4x4(blk);
            codec::quantize4x4(blk, qp, false);
            codec::dequantize4x4(blk, qp);
            codec::inverseDct4x4(blk);
            for (int i = 0; i < 16; ++i) {
                err += std::abs(blk[i] - orig[i]);
            }
        }
        EXPECT_GT(err, prev_err) << "QP " << qp;
        prev_err = err;
    }
}

TEST(Tables, QstepDoublesEverySixQp)
{
    for (int qp = 0; qp + 6 < codec::kQpCount; ++qp) {
        EXPECT_NEAR(codec::qpToQstep(qp + 6) / codec::qpToQstep(qp), 2.0,
                    1e-9);
    }
}

TEST(Tables, QstepQpInverse)
{
    for (int qp = 0; qp < codec::kQpCount; ++qp) {
        EXPECT_EQ(codec::qstepToQp(codec::qpToQstep(qp)), qp);
    }
}

TEST(Tables, ZigzagIsPermutation)
{
    bool seen[16] = {};
    for (int i = 0; i < 16; ++i) {
        const int r = codec::kZigzag4x4[i];
        ASSERT_GE(r, 0);
        ASSERT_LT(r, 16);
        EXPECT_FALSE(seen[r]);
        seen[r] = true;
        EXPECT_EQ(codec::kZigzag4x4Inv[r], i);
    }
}

TEST(Tables, LambdaMonotone)
{
    for (int qp = 1; qp < codec::kQpCount; ++qp) {
        EXPECT_GE(codec::lambdaFp(qp), codec::lambdaFp(qp - 1));
    }
}

// ---- Pixel kernels -------------------------------------------------------

Frame
gradientFrame(int w, int h, int slope_x = 1, int slope_y = 2)
{
    Frame f(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            f.at(Plane::Y, x, y) =
                static_cast<uint8_t>((x * slope_x + y * slope_y) & 255);
        }
    }
    return f;
}

TEST(Pixel, SadZeroForIdenticalBlocks)
{
    Frame f = gradientFrame(64, 48);
    EXPECT_EQ(codec::sadBlock(f, 16, 16, f, 16, 16, 16, 16, INT32_MAX), 0);
}

TEST(Pixel, SadMatchesBruteForce)
{
    Frame a = gradientFrame(64, 48, 1, 2);
    Frame b = gradientFrame(64, 48, 2, 1);
    int expected = 0;
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            expected += std::abs(
                static_cast<int>(a.at(Plane::Y, 8 + x, 8 + y))
                - static_cast<int>(b.at(Plane::Y, 16 + x, 8 + y)));
        }
    }
    EXPECT_EQ(codec::sadBlock(a, 8, 8, b, 16, 8, 16, 16, INT32_MAX),
              expected);
}

TEST(Pixel, SadEarlyTerminationNeverUnderestimatesWinner)
{
    // With a bound, the returned value is >= bound when it bails, so a
    // best-cost comparison is still correct.
    Frame a = gradientFrame(64, 48, 3, 5);
    Frame b = gradientFrame(64, 48, 5, 3);
    const int full = codec::sadBlock(a, 0, 0, b, 0, 0, 16, 16, INT32_MAX);
    const int bounded = codec::sadBlock(a, 0, 0, b, 0, 0, 16, 16, full / 4);
    EXPECT_GE(bounded, full / 4);
}

TEST(Pixel, McFullPelCopies)
{
    Frame ref = gradientFrame(64, 48);
    uint8_t dst[256];
    codec::mcLumaBlock(dst, 16, ref, 16, 16, 8, -4, 16, 16,
                       static_cast<uint64_t>(codec::Scratch::Pred));
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            EXPECT_EQ(dst[y * 16 + x], ref.at(Plane::Y, 18 + x, 15 + y));
        }
    }
}

TEST(Pixel, McSubpelInterpolates)
{
    // A half-pel shift on a linear ramp equals the midpoint value.
    Frame ref(32, 32);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            ref.at(Plane::Y, x, y) = static_cast<uint8_t>(x * 4);
        }
    }
    uint8_t dst[16];
    codec::mcLumaBlock(dst, 4, ref, 8, 8, 2, 0, 4, 4,
                       static_cast<uint64_t>(codec::Scratch::Pred));
    EXPECT_EQ(dst[0], (8 * 4 + 9 * 4) / 2);
}

TEST(Pixel, SatdZeroForPerfectPrediction)
{
    Frame f = gradientFrame(32, 32);
    uint8_t pred[16];
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            pred[y * 4 + x] = f.at(Plane::Y, 4 + x, 4 + y);
        }
    }
    EXPECT_EQ(codec::satd4x4(f, 4, 4, pred, 4,
                             static_cast<uint64_t>(codec::Scratch::Pred)),
              0);
}

TEST(Pixel, AverageBlocksRounds)
{
    uint8_t a[4] = {0, 1, 255, 100};
    uint8_t b[4] = {1, 2, 255, 101};
    uint8_t dst[4];
    codec::averageBlocks(dst, a, b, 4,
                         static_cast<uint64_t>(codec::Scratch::Pred));
    EXPECT_EQ(dst[0], 1);   // (0+1+1)>>1
    EXPECT_EQ(dst[1], 2);
    EXPECT_EQ(dst[2], 255);
    EXPECT_EQ(dst[3], 101);
}

// ---- Motion estimation ----------------------------------------------------

/** Builds (current, reference) where current is reference shifted. The
 *  content is a sum of Gaussian blobs: smooth (so descent searches have a
 *  basin to follow) but aperiodic (no aliased minima). */
void
makeShiftedPair(Frame& cur, Frame& ref, int dx, int dy)
{
    struct Blob { double cx, cy, sigma, amp; };
    const Blob blobs[] = {{20, 14, 9, 90}, {52, 40, 12, -70},
                          {74, 22, 10, 60}, {38, 52, 8, -50}};
    for (int y = 0; y < ref.height(); ++y) {
        for (int x = 0; x < ref.width(); ++x) {
            double v = 128.0;
            for (const auto& b : blobs) {
                const double d2 = (x - b.cx) * (x - b.cx)
                                  + (y - b.cy) * (y - b.cy);
                v += b.amp * std::exp(-d2 / (2 * b.sigma * b.sigma));
            }
            ref.at(Plane::Y, x, y) =
                static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
        }
    }
    for (int y = 0; y < cur.height(); ++y) {
        for (int x = 0; x < cur.width(); ++x) {
            const int sx = std::clamp(x + dx, 0, ref.width() - 1);
            const int sy = std::clamp(y + dy, 0, ref.height() - 1);
            cur.at(Plane::Y, x, y) = ref.at(Plane::Y, sx, sy);
        }
    }
}

class MeMethodTest
    : public ::testing::TestWithParam<codec::MeMethod>
{
};

TEST_P(MeMethodTest, FindsKnownTranslation)
{
    Frame cur(96, 64);
    Frame ref(96, 64);
    makeShiftedPair(cur, ref, 5, -3);

    std::vector<const Frame*> refs{&ref};
    codec::MeContext ctx;
    ctx.cur = &cur;
    ctx.refs = &refs;
    ctx.method = GetParam();
    ctx.merange = 16;
    ctx.subme = 4;
    ctx.lambda_fp = 16;

    const auto r = codec::searchAllRefs(ctx, 32, 32, 16, 16, codec::Mv{});
    EXPECT_GT(ctx.candidates_evaluated, 0u);

    // The block at (32,32) in cur equals ref at (32+5, 32-3). Exhaustive
    // and multi-stage searches must recover (5, -3) (quarter-pel x4);
    // cheap descent patterns (dia, hex) may legitimately stop in a nearby
    // local optimum, but the match they return must be nearly as good as
    // the true displacement.
    const auto method = GetParam();
    if (method == codec::MeMethod::Umh || method == codec::MeMethod::Esa
        || method == codec::MeMethod::Tesa) {
        EXPECT_NEAR(r.mv.x, 5 * 4, 4);
        EXPECT_NEAR(r.mv.y, -3 * 4, 4);
    } else {
        const int true_sad = codec::sadBlock(cur, 32, 32, ref, 32 + 5,
                                             32 - 3, 16, 16, INT32_MAX);
        const int found_sad =
            codec::sadSubpel(cur, 32, 32, ref, r.mv.x, r.mv.y, 16, 16,
                             INT32_MAX);
        // ~2.5 grey levels of error per pixel still counts as a match.
        EXPECT_LE(found_sad, std::max(16 * 16 * 5 / 2, true_sad * 2))
            << "descent search returned a poor match";
    }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MeMethodTest,
                         ::testing::Values(codec::MeMethod::Dia,
                                           codec::MeMethod::Hex,
                                           codec::MeMethod::Umh,
                                           codec::MeMethod::Esa,
                                           codec::MeMethod::Tesa));

TEST(Me, EsaEvaluatesFullWindow)
{
    Frame cur(64, 64);
    Frame ref(64, 64);
    makeShiftedPair(cur, ref, 0, 0);

    std::vector<const Frame*> refs{&ref};
    codec::MeContext ctx;
    ctx.cur = &cur;
    ctx.refs = &refs;
    ctx.method = codec::MeMethod::Esa;
    ctx.merange = 4;
    ctx.subme = 0;
    ctx.lambda_fp = 16;
    codec::searchOneRef(ctx, 16, 16, 16, 16, codec::Mv{}, 0);
    // (2*4+1)^2 window positions, plus the seed duplicates.
    EXPECT_GE(ctx.candidates_evaluated, 81u);
}

TEST(Me, MoreCandidatesWithWiderSearch)
{
    Frame cur(64, 64);
    Frame ref(64, 64);
    makeShiftedPair(cur, ref, 3, 2);
    std::vector<const Frame*> refs{&ref};

    uint64_t counts[2];
    int i = 0;
    for (codec::MeMethod m :
         {codec::MeMethod::Dia, codec::MeMethod::Umh}) {
        codec::MeContext ctx;
        ctx.cur = &cur;
        ctx.refs = &refs;
        ctx.method = m;
        ctx.merange = 16;
        ctx.subme = 0;
        ctx.lambda_fp = 16;
        codec::searchOneRef(ctx, 16, 16, 16, 16, codec::Mv{}, 0);
        counts[i++] = ctx.candidates_evaluated;
    }
    EXPECT_GT(counts[1], counts[0]) << "umh must search more than dia";
}

// ---- MV utilities ----------------------------------------------------------

TEST(Mv, MedianPredictor)
{
    codec::Mv a{4, 8}, b{12, 0}, c{8, 16};
    const codec::Mv m = codec::medianMv(a, b, c);
    EXPECT_EQ(m.x, 8);
    EXPECT_EQ(m.y, 8);
}

TEST(Mv, MvdBitsSymmetry)
{
    codec::Mv pred{4, -8};
    EXPECT_EQ(codec::mvdBits(pred, pred), 2); // two zero se() codes
    codec::Mv far{100, -100};
    EXPECT_GT(codec::mvdBits(far, pred), codec::mvdBits(pred, pred));
}

// ---- Trellis ----------------------------------------------------------------

TEST(Trellis, NeverWorseRdThanUniformQuant)
{
    Rng rng(5);
    for (int trial = 0; trial < 100; ++trial) {
        const int qp = 10 + static_cast<int>(rng.below(30));
        int16_t residual[16];
        for (int i = 0; i < 16; ++i) {
            residual[i] = static_cast<int16_t>(rng.range(-60, 60));
        }

        auto rdCost = [&](const int16_t* levels) {
            // Rate: run/level bits; distortion: coefficient-domain SSE.
            int16_t rec[16];
            std::copy(levels, levels + 16, rec);
            codec::dequantize4x4(rec, qp);
            int64_t rate = 0;
            int run = 0;
            for (int i = 0; i < 16; ++i) {
                const int16_t l = levels[codec::kZigzag4x4[i]];
                if (l == 0) {
                    ++run;
                } else {
                    rate += codec::ueBits(run) + codec::seBits(l);
                    run = 0;
                }
            }
            int16_t ref[16];
            std::copy(residual, residual + 16, ref);
            codec::forwardDct4x4(ref);
            int64_t dist = 0;
            for (int i = 0; i < 16; ++i) {
                const int64_t d = static_cast<int64_t>(ref[i]) * 4 - rec[i];
                dist += (d * d) >> 6;
            }
            // The trellis' own objective: SSD lambda (see trellis.cc).
            const int64_t lambda = codec::lambdaFp(qp);
            const int64_t lambda_rate = (lambda * lambda * 10) >> 8;
            return dist + lambda_rate * rate;
        };

        int16_t uniform[16];
        std::copy(residual, residual + 16, uniform);
        codec::forwardDct4x4(uniform);
        codec::quantize4x4(uniform, qp, false);

        int16_t trellis[16];
        std::copy(residual, residual + 16, trellis);
        codec::forwardDct4x4(trellis);
        codec::trellisQuantize4x4(trellis, qp, false,
                                  codec::lambdaFp(qp));

        EXPECT_LE(rdCost(trellis), rdCost(uniform))
            << "trellis produced a worse RD point (qp " << qp << ")";
    }
}

TEST(Trellis, ActuallyDeviatesFromUniformQuant)
{
    // The RD rounding must kick in on a meaningful share of real blocks
    // (zeroing isolated costly coefficients); a trellis that always
    // reproduces the uniform quantizer is dead weight.
    Rng rng(13);
    int differ = 0;
    const int trials = 500;
    for (int t = 0; t < trials; ++t) {
        const int qp = 15 + static_cast<int>(rng.below(25));
        int16_t uniform[16];
        int16_t trellis[16];
        for (int i = 0; i < 16; ++i) {
            uniform[i] = trellis[i] =
                static_cast<int16_t>(rng.range(-70, 70));
        }
        codec::forwardDct4x4(uniform);
        std::copy(uniform, uniform + 16, trellis);
        codec::quantize4x4(uniform, qp, false);
        codec::trellisQuantize4x4(trellis, qp, false,
                                  codec::lambdaFp(qp));
        bool same = true;
        for (int i = 0; i < 16; ++i) {
            same = same && uniform[i] == trellis[i];
        }
        differ += same ? 0 : 1;
    }
    EXPECT_GT(differ, trials / 20)
        << "trellis never deviates: the rate term is mis-scaled";
    EXPECT_LT(differ, trials)
        << "trellis always deviates: the distortion term is mis-scaled";
}

TEST(Trellis, ZeroInputStaysZero)
{
    int16_t blk[16] = {};
    EXPECT_EQ(codec::trellisQuantize4x4(blk, 20, false, 64), 0);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(blk[i], 0);
    }
}

// ---- Intra prediction ---------------------------------------------------------

TEST(Intra, DcPredictsNeighborMean)
{
    Frame recon(48, 32);
    recon.fill(100, 128, 128);
    uint8_t pred[256];
    codec::predictIntra16(recon, 16, 16, codec::Intra16Mode::DC, pred);
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(pred[i], 100);
    }
}

TEST(Intra, TopLeftUnavailableFallsBackTo128)
{
    Frame recon(48, 32);
    recon.fill(77, 128, 128);
    uint8_t pred[256];
    codec::predictIntra16(recon, 0, 0, codec::Intra16Mode::DC, pred);
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(pred[i], 128);
    }
}

TEST(Intra, VerticalCopiesTopRow)
{
    Frame recon(48, 32);
    for (int x = 0; x < 48; ++x) {
        recon.at(Plane::Y, x, 15) = static_cast<uint8_t>(x);
    }
    uint8_t pred[256];
    codec::predictIntra16(recon, 16, 16, codec::Intra16Mode::V, pred);
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            EXPECT_EQ(pred[y * 16 + x], 16 + x);
        }
    }
}

TEST(Intra, ChooserPicksPerfectMode)
{
    // A frame of horizontal stripes: H prediction from the left column is
    // exact, so the chooser must pick H.
    Frame f(48, 48);
    for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 48; ++x) {
            f.at(Plane::Y, x, y) = static_cast<uint8_t>(y * 5);
        }
    }
    int cost = 0;
    const auto mode =
        codec::chooseIntra16(f, f, 16, 16, false, 16, &cost);
    EXPECT_EQ(mode, codec::Intra16Mode::H);
    EXPECT_LE(cost, 16); // only the mode-signalling lambda cost remains
}

// ---- Presets / params -----------------------------------------------------------

TEST(Params, TableIIPresetLadder)
{
    using codec::MeMethod;
    const auto& names = codec::presetNames();
    ASSERT_EQ(names.size(), 10u);

    EXPECT_EQ(codec::presetParams("ultrafast").me, MeMethod::Dia);
    EXPECT_EQ(codec::presetParams("medium").me, MeMethod::Hex);
    EXPECT_EQ(codec::presetParams("slower").me, MeMethod::Umh);
    EXPECT_EQ(codec::presetParams("placebo").me, MeMethod::Tesa);

    EXPECT_EQ(codec::presetParams("veryslow").merange, 24);
    EXPECT_EQ(codec::presetParams("medium").merange, 16);

    // subme strictly increases along the ladder.
    int prev = -1;
    for (const auto& n : names) {
        const int subme = codec::presetParams(n).subme;
        EXPECT_GT(subme, prev) << n;
        prev = subme;
    }

    // Paper methodology: refs pinned to 3 unless preset_refs requested.
    EXPECT_EQ(codec::presetParams("placebo").refs, 3);
    EXPECT_EQ(codec::presetParams("placebo", true).refs, 16);
    EXPECT_EQ(codec::presetParams("ultrafast", true).refs, 1);
}

TEST(Params, ValidationRejectsBadValues)
{
    codec::EncoderParams p = codec::presetParams("medium");
    p.crf = 52;
    EXPECT_DEATH(p.validate(), "crf");
}

// ---- Canonical parameter digest (the cache's config identity) ---------------

TEST(ParamsDigest, PresetLabelAndInertRateControlFieldsAreExcluded)
{
    // Two configs that encode identically must hash identically: the
    // preset name is a label, and qp/bitrate are dead under CRF.
    const codec::EncoderParams a = codec::presetParams("medium");
    codec::EncoderParams b = a;
    b.preset = "hand-rolled";
    b.qp = 40;
    b.bitrate_kbps = 9999.0;
    b.vbv_maxrate_kbps = 0.0; // Already off; stays inert.
    EXPECT_EQ(codec::canonicalString(a), codec::canonicalString(b));
    EXPECT_EQ(codec::canonicalDigest(a), codec::canonicalDigest(b));

    // A default-constructed medium equals the preset, label aside.
    codec::EncoderParams plain;
    plain.preset = "";
    EXPECT_EQ(codec::canonicalDigest(plain),
              codec::canonicalDigest(codec::presetParams("medium")));

    // The default codegen renders nothing: the default digest is the one
    // every cache key and pinned golden was computed with before codegen
    // became a parameter.
    EXPECT_EQ(codec::canonicalString(plain),
              "rc=CRF;crf=23;refs=3;keyint=250;bframes=3;badapt=1;"
              "scenecut=40;me=hex;merange=16;subme=7;parts=111;trellis=1;"
              "aq=1;aqs=1;deblock=1;dbab=1,0;");
    EXPECT_EQ(codec::canonicalDigest(plain), 0x66684a59eda1a4eeull);
}

TEST(ParamsDigest, FeatureGatedFieldsAreInertWhenTheFeatureIsOff)
{
    codec::EncoderParams a = codec::presetParams("medium");
    a.aq_mode = 0;
    a.deblock = false;
    a.bframes = 0;
    codec::EncoderParams b = a;
    b.aq_strength = 2.5;   // Dead: AQ off.
    b.deblock_alpha = 3;   // Dead: deblocking off.
    b.deblock_beta = -2;
    b.b_adapt = 2;         // Dead: no B frames to adapt.
    EXPECT_EQ(codec::canonicalString(a), codec::canonicalString(b));
    EXPECT_EQ(codec::canonicalDigest(a), codec::canonicalDigest(b));

    // ...and live again once the features are on.
    a.aq_mode = 1;
    b.aq_mode = 1;
    EXPECT_NE(codec::canonicalDigest(a), codec::canonicalDigest(b));
}

TEST(ParamsDigest, ActiveFieldsChangeTheDigest)
{
    const codec::EncoderParams base = codec::presetParams("medium");
    const uint64_t base_digest = codec::canonicalDigest(base);

    std::set<uint64_t> digests{base_digest};
    const auto mutate = [&](auto&& fn) {
        codec::EncoderParams p = base;
        fn(p);
        const uint64_t d = codec::canonicalDigest(p);
        EXPECT_NE(d, base_digest);
        EXPECT_TRUE(digests.insert(d).second) << "digest collision";
    };
    mutate([](codec::EncoderParams& p) { p.crf += 1; });
    mutate([](codec::EncoderParams& p) { p.refs += 1; });
    mutate([](codec::EncoderParams& p) { p.keyint = 60; });
    mutate([](codec::EncoderParams& p) { p.subme += 1; });
    mutate([](codec::EncoderParams& p) { p.trellis = 2; });
    mutate([](codec::EncoderParams& p) { p.scenecut = 0; });
    mutate([](codec::EncoderParams& p) { p.me = codec::MeMethod::Umh; });
    mutate([](codec::EncoderParams& p) { p.aq_strength = 1.5; });
    mutate([](codec::EncoderParams& p) { p.deblock_alpha = 2; });
    mutate([](codec::EncoderParams& p) {
        p.rc = codec::RateControl::ABR;
        p.bitrate_kbps = 1000.0;
    });
    // Codegen does not change the bitstream but does change what a
    // simulated run measures, so each choice gets its own digest.
    mutate([](codec::EncoderParams& p) {
        p.codegen.kernel_model = codec::KernelModel::Vector;
    });
    mutate([](codec::EncoderParams& p) {
        p.codegen.interchange_deblock = true;
    });
    mutate([](codec::EncoderParams& p) { p.codegen.fuse_lookahead = true; });
}

TEST(ParamsDigest, NoCollisionsAcrossThePresetSweepCorpus)
{
    // The farm's sweep corpus: every preset crossed with the crf/refs
    // grids. Distinct canonical strings must have distinct digests.
    std::map<uint64_t, std::string> seen;
    int configs = 0;
    for (const auto& name : codec::presetNames()) {
        for (const int crf : {18, 23, 28, 34}) {
            for (const int refs : {1, 2, 4, 8}) {
                codec::EncoderParams p = codec::presetParams(name);
                p.crf = crf;
                p.refs = refs;
                const std::string canon = codec::canonicalString(p);
                const auto [it, fresh] =
                    seen.emplace(codec::canonicalDigest(p), canon);
                EXPECT_TRUE(fresh || it->second == canon)
                    << "digest collision between \"" << it->second
                    << "\" and \"" << canon << "\"";
                ++configs;
            }
        }
    }
    EXPECT_EQ(configs, int(codec::presetNames().size()) * 16);
    EXPECT_EQ(seen.size(), size_t(configs));
}

// ---- Lookahead --------------------------------------------------------------------

TEST(Lookahead, SceneCutForcesIFrame)
{
    // Two static scenes with a hard cut in the middle.
    std::vector<Frame> frames;
    for (int i = 0; i < 12; ++i) {
        frames.emplace_back(48, 32);
        if (i < 6) {
            frames.back().fill(60, 100, 150);
        } else {
            // Textured second scene so intra cost is non-trivial.
            for (int y = 0; y < 32; ++y) {
                for (int x = 0; x < 48; ++x) {
                    frames.back().at(Plane::Y, x, y) =
                        static_cast<uint8_t>((x * 37 + y * 11) & 255);
                }
            }
        }
    }
    codec::EncoderParams p = codec::presetParams("medium");
    p.bframes = 0;
    const auto plan = codec::planFrameTypes(frames, p);
    ASSERT_EQ(plan.size(), frames.size());
    EXPECT_EQ(plan[0].type, codec::FrameType::I);
    EXPECT_EQ(plan[6].type, codec::FrameType::I)
        << "scene cut at frame 6 must open a new GOP";
}

TEST(Lookahead, ScenecutZeroDisablesDetection)
{
    std::vector<Frame> frames;
    for (int i = 0; i < 8; ++i) {
        frames.emplace_back(48, 32);
        frames.back().fill(static_cast<uint8_t>(i * 30), 128, 128);
    }
    codec::EncoderParams p = codec::presetParams("medium");
    p.scenecut = 0;
    p.bframes = 0;
    const auto plan = codec::planFrameTypes(frames, p);
    for (size_t i = 1; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].type, codec::FrameType::P) << "frame " << i;
    }
}

TEST(Lookahead, CodedOrderPutsAnchorBeforeItsBs)
{
    std::vector<codec::PlannedFrame> plan = {
        {0, codec::FrameType::I}, {1, codec::FrameType::B},
        {2, codec::FrameType::B}, {3, codec::FrameType::P},
        {4, codec::FrameType::P},
    };
    const auto coded = codec::codedOrder(plan);
    ASSERT_EQ(coded.size(), 5u);
    EXPECT_EQ(coded[0].display_index, 0);
    EXPECT_EQ(coded[1].display_index, 3); // future anchor first
    EXPECT_EQ(coded[2].display_index, 1);
    EXPECT_EQ(coded[3].display_index, 2);
    EXPECT_EQ(coded[4].display_index, 4);
}

TEST(Lookahead, KeyintBoundsGopLength)
{
    std::vector<Frame> frames;
    for (int i = 0; i < 20; ++i) {
        frames.emplace_back(48, 32);
        frames.back().fill(90, 128, 128);
    }
    codec::EncoderParams p = codec::presetParams("medium");
    p.keyint = 5;
    p.bframes = 0;
    p.scenecut = 0;
    const auto plan = codec::planFrameTypes(frames, p);
    int since = 0;
    for (const auto& pf : plan) {
        if (pf.type == codec::FrameType::I) {
            since = 0;
        } else {
            ++since;
            EXPECT_LT(since, 5);
        }
    }
}

} // namespace
} // namespace vtrans
