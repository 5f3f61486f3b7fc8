#include "codec/lookahead.h"

#include <algorithm>
#include <cstdlib>

#include "codec/params.h"
#include "codec/pixel.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

namespace {

/** Half-resolution luma sample (2x2 box filter). */
inline int
halfPixel(const Frame& f, int hx, int hy)
{
    const int x = hx * 2;
    const int y = hy * 2;
    return (f.at(Plane::Y, x, y) + f.at(Plane::Y, x + 1, y)
            + f.at(Plane::Y, x, y + 1) + f.at(Plane::Y, x + 1, y + 1) + 2)
           >> 2;
}

/** 8x8 SAD between half-res blocks of two frames with displacement. */
int
halfSad8x8(const Frame& cur, int bx, int by, const Frame& prev, int dx,
           int dy)
{
    VT_SITE(site, "lookahead.sad8", 96, 18, BlockLoadDep);
    trace::block(site);
    const int hw = cur.width() / 2;
    const int hh = cur.height() / 2;
    int sad = 0;
    for (int y = 0; y < 8; ++y) {
        trace::load(cur.simAddr(Plane::Y, bx * 2, (by + y) * 2), 16);
        trace::load(prev.simAddr(
                        Plane::Y,
                        std::clamp((bx + dx) * 2, 0, cur.width() - 2),
                        std::clamp((by + dy + y) * 2, 0, cur.height() - 2)),
                    16);
        for (int x = 0; x < 8; ++x) {
            const int px = std::clamp(bx + dx + x, 0, hw - 1);
            const int py = std::clamp(by + dy + y, 0, hh - 1);
            sad += std::abs(halfPixel(cur, bx + x, by + y)
                            - halfPixel(prev, px, py));
        }
    }
    return sad;
}

/** Intra cost proxy of an 8x8 half-res block: deviation from its DC. */
int
halfIntra8x8(const Frame& cur, int bx, int by)
{
    VT_SITE(site, "lookahead.intra8", 80, 24, Block);
    trace::block(site);
    int sum = 0;
    int vals[64];
    for (int y = 0; y < 8; ++y) {
        trace::load(cur.simAddr(Plane::Y, bx * 2, (by + y) * 2), 16);
        for (int x = 0; x < 8; ++x) {
            vals[y * 8 + x] = halfPixel(cur, bx + x, by + y);
            sum += vals[y * 8 + x];
        }
    }
    const int dc = (sum + 32) >> 6;
    int cost = 0;
    for (int i = 0; i < 64; ++i) {
        cost += std::abs(vals[i] - dc);
    }
    // Flat intra floor: even a perfectly flat block costs header bits.
    return cost + 64;
}

} // namespace

namespace {

/**
 * Fused per-block analysis (Graphite's loop fusion / distribution
 * inverse, see codec::Codegen): the current block's half-res pixels are
 * computed once into a register block and reused by both the intra cost
 * and every inter candidate, instead of being re-loaded per pass.
 * Arithmetic is identical to the unfused path.
 */
void
analyzeBlockFused(const Frame& frame, const Frame* prev, int bx, int by,
                  int64_t* intra_out, int64_t* inter_out)
{
    static const int kDia[5][2] = {
        {0, 0}, {2, 0}, {-2, 0}, {0, 2}, {0, -2}};
    VT_SITE(site, "lookahead.fused8", 128, 30, BlockLoadDep);
    trace::block(site);
    const int hw = frame.width() / 2;
    const int hh = frame.height() / 2;

    int vals[64];
    int sum = 0;
    for (int y = 0; y < 8; ++y) {
        trace::load(frame.simAddr(Plane::Y, bx * 2, (by + y) * 2), 16);
        for (int x = 0; x < 8; ++x) {
            vals[y * 8 + x] = halfPixel(frame, bx + x, by + y);
            sum += vals[y * 8 + x];
        }
    }
    const int dc = (sum + 32) >> 6;
    int intra = 0;
    for (int i = 0; i < 64; ++i) {
        intra += std::abs(vals[i] - dc);
    }
    intra += 64;
    *intra_out = intra;

    if (prev == nullptr) {
        *inter_out = intra;
        return;
    }
    int best = INT32_MAX;
    for (const auto& d : kDia) {
        VT_SITE(site_c, "lookahead.cand.fused", 24, 4, Block);
        trace::block(site_c);
        int sad = 0;
        for (int y = 0; y < 8; ++y) {
            trace::load(
                prev->simAddr(
                    Plane::Y,
                    std::clamp((bx + d[0]) * 2, 0, frame.width() - 2),
                    std::clamp((by + d[1] + y) * 2, 0,
                               frame.height() - 2)),
                16);
            for (int x = 0; x < 8; ++x) {
                const int px = std::clamp(bx + d[0] + x, 0, hw - 1);
                const int py = std::clamp(by + d[1] + y, 0, hh - 1);
                sad += std::abs(vals[y * 8 + x] - halfPixel(*prev, px, py));
            }
        }
        best = std::min(best, sad);
    }
    *inter_out = std::min(static_cast<int64_t>(best) + 16,
                          static_cast<int64_t>(intra));
}

} // namespace

FrameCosts
estimateFrameCosts(const Frame& frame, const Frame* prev)
{
    FrameCosts costs;
    const int hbw = frame.width() / 2 / 8;
    const int hbh = frame.height() / 2 / 8;
    static const int kDia[5][2] = {
        {0, 0}, {2, 0}, {-2, 0}, {0, 2}, {0, -2}};
    const bool fused = activeCodegen().fuse_lookahead;

    for (int by = 0; by < hbh; ++by) {
        for (int bx = 0; bx < hbw; ++bx) {
            if (fused) {
                int64_t intra = 0;
                int64_t inter = 0;
                analyzeBlockFused(frame, prev, bx * 8, by * 8, &intra,
                                  &inter);
                costs.intra_cost += intra;
                costs.inter_cost += prev != nullptr ? inter : 0;
                continue;
            }
            const int intra = halfIntra8x8(frame, bx * 8, by * 8);
            costs.intra_cost += intra;
            if (prev != nullptr) {
                int best = INT32_MAX;
                for (const auto& d : kDia) {
                    VT_SITE(site_c, "lookahead.cand", 24, 4, Block);
                    trace::block(site_c);
                    best = std::min(
                        best, halfSad8x8(frame, bx * 8, by * 8, *prev,
                                         d[0], d[1]));
                }
                // Inter blocks can fall back to intra coding.
                costs.inter_cost += std::min(best + 16, intra);
            }
        }
    }
    if (prev == nullptr) {
        costs.inter_cost = costs.intra_cost;
    }
    return costs;
}

std::vector<PlannedFrame>
planFrameTypes(const std::vector<Frame>& frames, const EncoderParams& params,
               std::vector<FrameCosts>* costs_out)
{
    VT_ASSERT(!frames.empty(), "cannot plan an empty sequence");
    const int n = static_cast<int>(frames.size());

    std::vector<FrameCosts> costs(n);
    for (int i = 0; i < n; ++i) {
        costs[i] = estimateFrameCosts(frames[i], i > 0 ? &frames[i - 1]
                                                       : nullptr);
    }
    if (costs_out != nullptr) {
        *costs_out = costs;
    }

    // Pass 1: anchors. I frames at GOP starts and scene cuts.
    std::vector<FrameType> types(n, FrameType::P);
    int since_idr = 0;
    for (int i = 0; i < n; ++i) {
        bool is_idr = (i == 0) || (since_idr >= params.keyint - 1);
        if (!is_idr && params.scenecut > 0 && i > 0) {
            const double ratio =
                static_cast<double>(costs[i].inter_cost)
                / std::max<int64_t>(1, costs[i].intra_cost);
            // High inter/intra ratio means prediction from the previous
            // frame buys little: a scene change.
            is_idr = ratio > (1.0 - params.scenecut / 100.0);
        }
        if (is_idr) {
            types[i] = FrameType::I;
            since_idr = 0;
        } else {
            ++since_idr;
        }
    }

    // Pass 2: B placement between anchors.
    if (params.bframes > 0) {
        // Work GOP by GOP (between consecutive I frames and sequence ends).
        int start = 0;
        while (start < n) {
            int end = start + 1;
            while (end < n && types[end] != FrameType::I) {
                ++end;
            }
            // Within [start, end): the first frame is the anchor; decide
            // B runs among the following frames. The final frame of a GOP
            // segment must be a P (or the GOP's closing I at `end`).
            int i = start + 1;
            while (i < end) {
                int max_run =
                    std::min(params.bframes, end - i - (end == n ? 1 : 0));
                if (max_run <= 0) {
                    types[i] = FrameType::P;
                    ++i;
                    continue;
                }
                int run = 0;
                if (params.b_adapt == 0) {
                    run = max_run;
                } else if (params.b_adapt == 1) {
                    // Greedy: extend while the candidate's inter cost stays
                    // below half of its intra cost (cheap-to-interpolate).
                    while (run < max_run) {
                        const auto& c = costs[i + run];
                        if (c.inter_cost * 2 < c.intra_cost) {
                            ++run;
                        } else {
                            break;
                        }
                    }
                } else {
                    // Windowed exhaustive (Viterbi-style): choose the run
                    // length minimizing the estimated cost of the mini-GOP.
                    int64_t best_cost = INT64_MAX;
                    int best_run = 0;
                    for (int r = 0; r <= max_run; ++r) {
                        if (i + r >= end) {
                            break;
                        }
                        int64_t total = 0;
                        for (int k = 0; k < r; ++k) {
                            // B frames are roughly half the cost of P.
                            total += costs[i + k].inter_cost / 2;
                        }
                        total += costs[i + r].inter_cost;
                        // Longer runs push the anchor further from its
                        // reference; penalize by distance.
                        total += static_cast<int64_t>(r) * r * 16;
                        if (total < best_cost) {
                            best_cost = total;
                            best_run = r;
                        }
                    }
                    run = best_run;
                }
                for (int k = 0; k < run && i + k < end; ++k) {
                    types[i + k] = FrameType::B;
                }
                const int anchor = i + run;
                if (anchor < end) {
                    types[anchor] = FrameType::P;
                }
                i = anchor + 1;
            }
            // A trailing B at the end of the sequence has no backward
            // anchor; demote it (and any run) ending at n-1 to P.
            if (end == n && types[n - 1] == FrameType::B) {
                types[n - 1] = FrameType::P;
            }
            start = end;
        }
    }

    std::vector<PlannedFrame> plan(n);
    for (int i = 0; i < n; ++i) {
        plan[i] = {i, types[i]};
    }
    return plan;
}

std::vector<PlannedFrame>
codedOrder(const std::vector<PlannedFrame>& plan)
{
    std::vector<PlannedFrame> coded;
    coded.reserve(plan.size());
    std::vector<PlannedFrame> pending_b;
    for (const auto& pf : plan) {
        if (pf.type == FrameType::B) {
            pending_b.push_back(pf);
        } else {
            coded.push_back(pf);
            for (const auto& b : pending_b) {
                coded.push_back(b);
            }
            pending_b.clear();
        }
    }
    // Trailing Bs without a backward anchor are emitted last (the encoder
    // demotes them, but stay safe).
    for (const auto& b : pending_b) {
        coded.push_back(b);
    }
    return coded;
}

} // namespace vtrans::codec
