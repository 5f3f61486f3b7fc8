#ifndef VTRANS_CODEC_PARAMS_H_
#define VTRANS_CODEC_PARAMS_H_

/**
 * @file
 * Encoder configuration: every tunable the paper varies — crf, refs, the
 * rate-control modes of §II-B1, the motion-estimation methods of §II-B2,
 * partition/mode-decision options, trellis levels, and the ten x264
 * presets of Table II.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace vtrans::codec {

/** Rate-control modes (paper §II-B1). */
enum class RateControl : uint8_t {
    CQP,      ///< Constant quantization parameter.
    CRF,      ///< Constant rate factor (quality-targeted); x264 default.
    ABR,      ///< Single-pass average bitrate.
    TwoPass,  ///< Two-pass average bitrate (first pass estimates).
    CBR,      ///< Constant bitrate, enforced at macroblock granularity.
    VBV,      ///< CRF constrained by a decoder buffer model.
};

/** Integer-pixel motion estimation methods (paper §II-B2). */
enum class MeMethod : uint8_t {
    Dia,   ///< Small diamond descent.
    Hex,   ///< Hexagon descent plus diamond refinement.
    Umh,   ///< Uneven multi-hexagon (cross + square + hex rings).
    Esa,   ///< Exhaustive search over the full range.
    Tesa,  ///< Exhaustive with an extra SATD pass on near-best candidates.
};

/** Frame types (paper §II-A). */
enum class FrameType : uint8_t { I = 0, P = 1, B = 2 };

/** Macroblock partitioning features a preset may enable. */
struct Partitions
{
    bool p8x8 = true;  ///< Inter 8x8 partitions in P/B frames.
    bool i4x4 = true;  ///< Intra 4x4 prediction.
    bool i8x8 = true;  ///< Intra 8x8 (folded into the i4x4 path here).
};

/** Simulated kernel cost model: Scalar emits the historical probe sites
 *  (default), Vector the SIMD-form sites of uarch/simdcost.h — fewer,
 *  wider retired ops per block. */
enum class KernelModel : uint8_t { Scalar, Vector };

/**
 * Which compiled code the simulated binary runs: the kernel cost model
 * and the Graphite loop transformations (-floop-interchange
 * -ftree-loop-distribution -floop-block, paper §III-D1). Every choice
 * produces the same bitstream and pixels; only the probe stream the
 * simulated core sees changes. Each loop schedule is checked legal by
 * the byte-identity tests in tests/test_codec_filters.cc (interchanged
 * deblock pixels, fused lookahead costs).
 */
struct Codegen
{
    KernelModel kernel_model = KernelModel::Scalar;
    /** Deblock's vertical-edge pass walks row-major instead of
     *  column-major: sequential reuse instead of a strided miss storm. */
    bool interchange_deblock = false;
    /** The lookahead loads each half-res block once for its intra and
     *  inter cost proxies instead of once per pass. */
    bool fuse_lookahead = false;

    bool operator==(const Codegen&) const = default;
};

/**
 * Full encoder parameter set.
 *
 * Defaults correspond to the paper's default operating point: the
 * `medium` preset with crf=23 and refs=3.
 */
struct EncoderParams
{
    // Rate control.
    RateControl rc = RateControl::CRF;
    int crf = 23;              ///< 0 (lossless-ish) .. 51 (worst).
    int qp = 23;               ///< For CQP mode.
    double bitrate_kbps = 1000.0;  ///< Target for ABR/TwoPass/CBR.
    double vbv_maxrate_kbps = 0.0; ///< VBV cap (0 = off).
    double vbv_buffer_kbits = 0.0; ///< VBV buffer size.

    // Reference frames & GOP structure.
    int refs = 3;              ///< 1..16 reference frames.
    int keyint = 250;          ///< Maximum GOP length.
    int bframes = 3;           ///< Max consecutive B frames.
    int b_adapt = 1;           ///< 0 fixed, 1 greedy, 2 lookahead-trellis.
    int scenecut = 40;         ///< Threshold (0 disables detection).

    // Analysis.
    MeMethod me = MeMethod::Hex;
    int merange = 16;          ///< Full-pel search range.
    int subme = 7;             ///< Sub-pixel refinement level 0..11.
    Partitions partitions;
    int trellis = 1;           ///< 0 off, 1 final-encode, 2 all decisions.

    // Adaptive quantization & deblocking.
    int aq_mode = 1;           ///< 0 off, 1 variance AQ.
    double aq_strength = 1.0;
    bool deblock = true;
    int deblock_alpha = 1;     ///< Alpha offset (Table II "deblock [a:b]").
    int deblock_beta = 0;      ///< Beta offset.

    /** The code the encode runs on (not a bitstream choice). */
    Codegen codegen;

    std::string preset = "medium";

    /** Validates ranges; fatal error on invalid user input. */
    void validate() const;
};

/** Names of the ten x264 presets, fastest first. */
const std::vector<std::string>& presetNames();

/**
 * Returns the parameter set for a named preset (Table II), with the
 * default crf=23. Per the paper's methodology (§III-C2), `refs` is NOT
 * taken from the preset by default — the paper studies crf/refs separately
 * and pins refs=3 for the preset sweep. Pass `preset_refs=true` to use the
 * preset's own refs value (Table II bottom row).
 */
EncoderParams presetParams(const std::string& name, bool preset_refs = false);

namespace detail {

/** The codegen of the codec work running on this thread (CodegenScope). */
extern thread_local constinit Codegen t_codegen;

} // namespace detail

/** The codegen the calling thread's codec work runs on: the default
 *  outside any CodegenScope (a standalone `decode` runs the default). */
inline const Codegen&
activeCodegen()
{
    return detail::t_codegen;
}

/** Runs the calling thread's codec work on `params.codegen` until the
 *  scope ends, then restores the previous codegen. `transcode`,
 *  `Encoder::encode` and `chunk::split` open one, so a transcode's decode
 *  half runs the same code as its encode. */
class CodegenScope
{
  public:
    explicit CodegenScope(const EncoderParams& params)
        : saved_(detail::t_codegen)
    {
        detail::t_codegen = params.codegen;
    }
    ~CodegenScope() { detail::t_codegen = saved_; }
    CodegenScope(const CodegenScope&) = delete;
    CodegenScope& operator=(const CodegenScope&) = delete;

  private:
    Codegen saved_;
};

/**
 * Canonical serialization of a parameter set: a fixed-order, tagged
 * rendering of exactly the fields that influence the encoded bitstream
 * under the set's active modes, plus each codegen field that differs from
 * the default (codegen changes what a simulated run measures, so a vector
 * or Graphite run never shares a cache key with a default one, and a
 * default run keeps its digest). Fields that are inert for the current
 * configuration are omitted — `qp` matters only under CQP, the bitrate
 * target only under ABR/2-pass/CBR, the VBV pair only under VBV,
 * `aq_strength` only when AQ is on, the deblock offsets only when the
 * filter is enabled, `b_adapt` only when B-frames exist — and the
 * `preset` *name* is never included (it is a label, not a parameter).
 * Two parameter sets that encode identically on the same code therefore
 * canonicalize identically, however they were constructed.
 */
std::string canonicalString(const EncoderParams& params);

/**
 * Stable 64-bit FNV-1a digest of `canonicalString(params)` — the
 * encoder-parameter component of the farm's content-addressed cache
 * keys. Order- and default-insensitive per canonicalString's contract.
 */
uint64_t canonicalDigest(const EncoderParams& params);

/** Human-readable name of a rate-control mode. */
std::string toString(RateControl rc);
/** Human-readable name of an ME method. */
std::string toString(MeMethod me);
/** Human-readable name of a frame type ("I"/"P"/"B"). */
std::string toString(FrameType type);

/** Parses "scalar" / "vector" (the --kernel-model flag values) into
 *  `model`. @return false on an unknown name (`model` unchanged). */
bool parseKernelModel(const std::string& name, KernelModel* model);

} // namespace vtrans::codec

#endif // VTRANS_CODEC_PARAMS_H_
