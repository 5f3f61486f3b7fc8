#include "codec/pixel.h"

#include <algorithm>
#include <cstdlib>

#include "codec/strategies/strategies.h"
#include "common/status.h"
#include "trace/probe.h"
#include "uarch/simdcost.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

namespace {

/** Clamped read of a luma pixel (edge extension for out-of-frame MVs). */
inline int
refPixel(const Frame& ref, int x, int y)
{
    x = std::clamp(x, 0, ref.width() - 1);
    y = std::clamp(y, 0, ref.height() - 1);
    return ref.at(Plane::Y, x, y);
}

/** Clamped read of a chroma pixel. */
inline int
refChroma(const Frame& ref, Plane p, int x, int y)
{
    x = std::clamp(x, 0, ref.chromaWidth() - 1);
    y = std::clamp(y, 0, ref.chromaHeight() - 1);
    return ref.at(p, x, y);
}

/** Quarter-pel bilinear sample of the luma plane at (x4, y4)/4. */
inline int
sampleQpel(const Frame& ref, int x4, int y4)
{
    const int xi = x4 >> 2;
    const int yi = y4 >> 2;
    const int dx = x4 & 3;
    const int dy = y4 & 3;
    if (dx == 0 && dy == 0) {
        return refPixel(ref, xi, yi);
    }
    const int p00 = refPixel(ref, xi, yi);
    const int p10 = refPixel(ref, xi + 1, yi);
    const int p01 = refPixel(ref, xi, yi + 1);
    const int p11 = refPixel(ref, xi + 1, yi + 1);
    return ((4 - dx) * (4 - dy) * p00 + dx * (4 - dy) * p10
            + (4 - dx) * dy * p01 + dx * dy * p11 + 8)
           >> 4;
}

/**
 * True when the w x h *full-pel* window at (x, y) lies inside the luma
 * plane, so edge clamping is the identity and the strategy kernels (which
 * take raw pointers, no clamping) compute the same values.
 */
inline bool
fullpelInterior(const Frame& ref, int x, int y, int w, int h)
{
    return x >= 0 && y >= 0 && x + w <= ref.width() && y + h <= ref.height();
}

/**
 * True when the bilinear window at full-pel (x, y) — which also reads
 * column x+w-1+1 and row y+h-1+1 — lies inside the luma plane.
 */
inline bool
subpelInterior(const Frame& ref, int x, int y, int w, int h)
{
    return x >= 0 && y >= 0 && x + w < ref.width() && y + h < ref.height();
}

} // namespace

int
sadBlock(const Frame& cur, int cx, int cy, const Frame& ref, int rx, int ry,
         int w, int h, int best)
{
    VT_ASSERT(w == 4 || w == 8 || w == 16, "unsupported SAD width");
    // SIMD SAD works in 8-row chunks; early termination is only checked
    // between chunks, as in x264's pixel_sad ladders.
    const int chunk = h >= 8 ? 8 : h;
    const KernelOps& ops = kernels();
    const bool interior = fullpelInterior(ref, rx, ry, w, h);
    const uint8_t* cur_row = cur.data(Plane::Y)
                             + static_cast<ptrdiff_t>(cy) * cur.stride(Plane::Y)
                             + cx;
    const uint8_t* ref_row =
        interior ? ref.data(Plane::Y)
                       + static_cast<ptrdiff_t>(ry) * ref.stride(Plane::Y) + rx
                 : nullptr;
    int sad = 0;
    for (int y0 = 0; y0 < h; y0 += chunk) {
        if (vectorKernelModel()) {
            VT_SITE(site_vec, "pixel.sad.rows8.vec",
                    uarch::kVecSadRows8.bytes,
                    uarch::kVecSadRows8.instructions, BlockLoadDep);
            trace::block(site_vec);
        } else {
            VT_SITE(site_rows, "pixel.sad.rows8", 104, 16, BlockLoadDep);
            trace::block(site_rows);
        }
        // Guarded so native (sink-less) runs skip the simulated-address
        // math entirely; load() would drop the events anyway.
        if (trace::active()) {
            for (int dy = 0; dy < chunk; ++dy) {
                const int y = y0 + dy;
                trace::load(cur.simAddr(Plane::Y, cx, cy + y), w);
                trace::load(
                    ref.simAddr(Plane::Y, std::clamp(rx, 0, ref.width() - 1),
                                std::clamp(ry + y, 0, ref.height() - 1)),
                    w);
            }
        }
        if (interior) {
            sad += ops.sadRows(cur_row + y0 * cur.stride(Plane::Y),
                               cur.stride(Plane::Y),
                               ref_row + y0 * ref.stride(Plane::Y),
                               ref.stride(Plane::Y), w, chunk);
        } else {
            // Edge-clamped fallback: identical math to the scalar kernel
            // with refPixel() supplying the clamped reads.
            for (int dy = 0; dy < chunk; ++dy) {
                const int y = y0 + dy;
                for (int x = 0; x < w; ++x) {
                    sad += std::abs(static_cast<int>(cur.at(Plane::Y, cx + x,
                                                            cy + y))
                                    - refPixel(ref, rx + x, ry + y));
                }
            }
        }
        // Early termination: data-dependent branch against the best cost.
        VT_SITE(site_early, "pixel.sad.early_exit", 12, 1, BranchLoadDep);
        const bool bail = sad >= best;
        trace::branch(site_early, bail);
        if (bail) {
            return sad;
        }
    }
    return sad;
}

int
sadSubpel(const Frame& cur, int cx, int cy, const Frame& ref, int mvx,
          int mvy, int w, int h, int best)
{
    const int bx4 = cx * 4 + mvx;
    const int by4 = cy * 4 + mvy;
    const int xi0 = bx4 >> 2;
    const int yi0 = by4 >> 2;
    const int fx = bx4 & 3;
    const int fy = by4 & 3;
    const KernelOps& ops = kernels();
    const int cstride = cur.stride(Plane::Y);
    const int rstride = ref.stride(Plane::Y);
    const uint8_t* cur_row =
        cur.data(Plane::Y) + static_cast<ptrdiff_t>(cy) * cstride + cx;
    // Full-pel MVs compare directly against reference rows; fractional MVs
    // interpolate into a stack tile first (both via the strategy kernels).
    const bool fullpel = fx == 0 && fy == 0;
    const bool vectorizable =
        kernelBlockShape(w, 4)
        && (fullpel ? fullpelInterior(ref, xi0, yi0, w, h)
                    : subpelInterior(ref, xi0, yi0, w, h));
    const uint8_t* ref_row =
        vectorizable
            ? ref.data(Plane::Y) + static_cast<ptrdiff_t>(yi0) * rstride + xi0
            : nullptr;
    int sad = 0;
    for (int y0 = 0; y0 < h; y0 += 4) {
        // Interpolating SAD touches two reference rows per output row.
        if (vectorKernelModel()) {
            VT_SITE(site_vec, "pixel.sadsub.rows4.vec",
                    uarch::kVecSadSubRows4.bytes,
                    uarch::kVecSadSubRows4.instructions, BlockLoadDep);
            trace::block(site_vec);
        } else {
            VT_SITE(site_rows, "pixel.sadsub.rows4", 72, 14, BlockLoadDep);
            trace::block(site_rows);
        }
        if (trace::active()) {
            for (int dy = 0; dy < 4; ++dy) {
                const int y = y0 + dy;
                trace::load(cur.simAddr(Plane::Y, cx, cy + y), w);
                const int ry =
                    std::clamp((by4 >> 2) + y, 0, ref.height() - 1);
                const int rx = std::clamp(bx4 >> 2, 0, ref.width() - 1);
                trace::load(ref.simAddr(Plane::Y, rx, ry), w + 1);
                trace::load(ref.simAddr(Plane::Y, rx,
                                        std::min(ry + 1, ref.height() - 1)),
                            w + 1);
            }
        }
        if (vectorizable && fullpel) {
            sad += ops.sadRows(cur_row + y0 * cstride, cstride,
                               ref_row + y0 * rstride, rstride, w, 4);
        } else if (vectorizable) {
            uint8_t tile[16 * 4];
            ops.mcBilinear(tile, w, ref_row + y0 * rstride, rstride, w, 4,
                           fx, fy);
            sad += ops.sadRows(cur_row + y0 * cstride, cstride, tile, w, w,
                               4);
        } else {
            for (int dy = 0; dy < 4; ++dy) {
                const int y = y0 + dy;
                for (int x = 0; x < w; ++x) {
                    const int pred =
                        sampleQpel(ref, bx4 + x * 4, by4 + y * 4);
                    sad += std::abs(
                        static_cast<int>(cur.at(Plane::Y, cx + x, cy + y))
                        - pred);
                }
            }
        }
        VT_SITE(site_early, "pixel.sadsub.early_exit", 12, 1, BranchLoadDep);
        const bool bail = sad >= best;
        trace::branch(site_early, bail);
        if (bail) {
            return sad;
        }
    }
    return sad;
}

int
satd4x4(const Frame& cur, int cx, int cy, const uint8_t* pred, int pstride,
        uint64_t pred_sim)
{
    if (vectorKernelModel()) {
        VT_SITE(site_vec, "pixel.satd4x4.vec", uarch::kVecSatd4x4.bytes,
                uarch::kVecSatd4x4.instructions, BlockLoadDep);
        trace::block(site_vec);
    } else {
        VT_SITE(site, "pixel.satd4x4", 128, 26, BlockLoadDep);
        trace::block(site);
    }
    if (trace::active()) {
        for (int y = 0; y < 4; ++y) {
            trace::load(cur.simAddr(Plane::Y, cx, cy + y), 4);
            trace::load(pred_sim + static_cast<uint64_t>(y) * pstride, 4);
        }
    }
    // Current-frame 4x4 tiles are always in-plane and pred is a raw tile,
    // so the strategy kernel applies unconditionally.
    return kernels().satd4x4(cur.data(Plane::Y)
                                 + static_cast<ptrdiff_t>(cy)
                                       * cur.stride(Plane::Y)
                                 + cx,
                             cur.stride(Plane::Y), pred, pstride);
}

int
satdBlock(const Frame& cur, int cx, int cy, const uint8_t* pred, int pstride,
          int w, int h, uint64_t pred_sim)
{
    int total = 0;
    for (int y = 0; y < h; y += 4) {
        for (int x = 0; x < w; x += 4) {
            total += satd4x4(cur, cx + x, cy + y, pred + y * pstride + x,
                             pstride,
                             pred_sim + static_cast<uint64_t>(y) * pstride
                                 + x);
        }
    }
    return total;
}

void
mcLumaBlock(uint8_t* dst, int dstride, const Frame& ref, int cx, int cy,
            int mvx, int mvy, int w, int h, uint64_t dst_sim)
{
    const int bx4 = cx * 4 + mvx;
    const int by4 = cy * 4 + mvy;
    const bool subpel = (mvx & 3) || (mvy & 3);
    for (int y = 0; y < h; ++y) {
        if (vectorKernelModel()) {
            // Vector MC emits one block per *pair* of rows: the SIMD loop
            // body processes two rows per iteration.
            if ((y & 1) == 0) {
                VT_SITE(site_pair, "pixel.mc.rowpair.vec",
                        uarch::kVecMcRowPair.bytes,
                        uarch::kVecMcRowPair.instructions, Block);
                trace::block(site_pair);
            }
        } else {
            VT_SITE(site_row, "pixel.mc.row", 48, 6, Block);
            trace::block(site_row);
        }
        if (trace::active()) {
            const int ry = std::clamp((by4 >> 2) + y, 0, ref.height() - 1);
            const int rx = std::clamp(bx4 >> 2, 0, ref.width() - 1);
            trace::load(ref.simAddr(Plane::Y, rx, ry), w + 1);
            if (subpel) {
                trace::load(ref.simAddr(Plane::Y, rx,
                                        std::min(ry + 1, ref.height() - 1)),
                            w + 1);
            }
            trace::store(dst_sim + static_cast<uint64_t>(y) * dstride, w);
        }
    }
    const int xi0 = bx4 >> 2;
    const int yi0 = by4 >> 2;
    const int sstride = ref.stride(Plane::Y);
    const uint8_t* src =
        ref.data(Plane::Y) + static_cast<ptrdiff_t>(yi0) * sstride + xi0;
    const KernelOps& ops = kernels();
    const bool shape_ok = kernelBlockShape(w, h);
    if (shape_ok && !subpel && fullpelInterior(ref, xi0, yi0, w, h)) {
        ops.mcCopy(dst, dstride, src, sstride, w, h);
    } else if (shape_ok && subpel && subpelInterior(ref, xi0, yi0, w, h)) {
        ops.mcBilinear(dst, dstride, src, sstride, w, h, bx4 & 3, by4 & 3);
    } else {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                dst[y * dstride + x] = static_cast<uint8_t>(
                    sampleQpel(ref, bx4 + x * 4, by4 + y * 4));
            }
        }
    }
}

void
mcChromaBlock(uint8_t* dst, int dstride, const Frame& ref, Plane plane,
              int cx, int cy, int mvx, int mvy, int w, int h,
              uint64_t dst_sim)
{
    // Chroma plane is half resolution; a luma quarter-pel MV becomes an
    // eighth-pel chroma MV. We round to chroma quarter-pel and sample
    // bilinearly at half the displacement. The halving must floor (>> 1),
    // not truncate toward zero: a luma MV of -3 must round the same
    // distance left as +3 rounds right, or negative-MV chroma prediction
    // is biased one eighth-pel toward zero relative to luma.
    const int cmvx = mvx >> 1;
    const int cmvy = mvy >> 1;
    const int bx4 = cx * 4 + cmvx;
    const int by4 = cy * 4 + cmvy;
    for (int y = 0; y < h; ++y) {
        VT_SITE(site_row, "pixel.mcchroma.row", 44, 4, Block);
        trace::block(site_row);
        if (trace::active()) {
            const int ry =
                std::clamp((by4 >> 2) + y, 0, ref.chromaHeight() - 1);
            const int rx = std::clamp(bx4 >> 2, 0, ref.chromaWidth() - 1);
            trace::load(ref.simAddr(plane, rx, ry), w + 1);
            trace::store(dst_sim + static_cast<uint64_t>(y) * dstride, w);
        }
    }
    const int xi0 = bx4 >> 2;
    const int yi0 = by4 >> 2;
    // Chroma always evaluates the 4-tap bilinear form (no full-pel
    // shortcut), so the interior window needs the +1 column and row even
    // at zero fractions.
    if (kernelBlockShape(w, h) && xi0 >= 0 && yi0 >= 0
        && xi0 + w < ref.chromaWidth() && yi0 + h < ref.chromaHeight()) {
        const int sstride = ref.stride(plane);
        kernels().mcBilinear(
            dst, dstride,
            ref.data(plane) + static_cast<ptrdiff_t>(yi0) * sstride + xi0,
            sstride, w, h, bx4 & 3, by4 & 3);
        return;
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int x4 = bx4 + x * 4;
            const int y4 = by4 + y * 4;
            const int xi = x4 >> 2;
            const int yi = y4 >> 2;
            const int dx = x4 & 3;
            const int dy = y4 & 3;
            const int p00 = refChroma(ref, plane, xi, yi);
            const int p10 = refChroma(ref, plane, xi + 1, yi);
            const int p01 = refChroma(ref, plane, xi, yi + 1);
            const int p11 = refChroma(ref, plane, xi + 1, yi + 1);
            dst[y * dstride + x] = static_cast<uint8_t>(
                ((4 - dx) * (4 - dy) * p00 + dx * (4 - dy) * p10
                 + (4 - dx) * dy * p01 + dx * dy * p11 + 8)
                >> 4);
        }
    }
}

void
averageBlocks(uint8_t* dst, const uint8_t* a, const uint8_t* b, int n,
              uint64_t dst_sim)
{
    VT_SITE(site, "pixel.average", 40, 8, Block);
    trace::block(site);
    trace::load(static_cast<uint64_t>(Scratch::Pred), n);
    trace::load(static_cast<uint64_t>(Scratch::Pred2), n);
    trace::store(dst_sim, n);
    kernels().average(dst, a, b, n);
}

} // namespace vtrans::codec
