#include "codec/params.h"

#include <cstdio>
#include <sstream>

#include "common/status.h"

namespace vtrans::codec {

namespace detail {
thread_local constinit Codegen t_codegen;
} // namespace detail

void
EncoderParams::validate() const
{
    if (crf < 0 || crf > 51) {
        VT_FATAL("crf must be in [0, 51], got ", crf);
    }
    if (qp < 0 || qp > 51) {
        VT_FATAL("qp must be in [0, 51], got ", qp);
    }
    if (refs < 1 || refs > 16) {
        VT_FATAL("refs must be in [1, 16], got ", refs);
    }
    if (merange < 4 || merange > 64) {
        VT_FATAL("merange must be in [4, 64], got ", merange);
    }
    if (subme < 0 || subme > 11) {
        VT_FATAL("subme must be in [0, 11], got ", subme);
    }
    if (trellis < 0 || trellis > 2) {
        VT_FATAL("trellis must be in [0, 2], got ", trellis);
    }
    if (bframes < 0 || bframes > 16) {
        VT_FATAL("bframes must be in [0, 16], got ", bframes);
    }
    if (b_adapt < 0 || b_adapt > 2) {
        VT_FATAL("b_adapt must be in [0, 2], got ", b_adapt);
    }
    if (scenecut < 0 || scenecut > 100) {
        VT_FATAL("scenecut must be in [0, 100], got ", scenecut);
    }
    if (aq_mode < 0 || aq_mode > 1) {
        VT_FATAL("aq_mode must be 0 or 1, got ", aq_mode);
    }
    if (keyint < 1) {
        VT_FATAL("keyint must be >= 1, got ", keyint);
    }
    if ((rc == RateControl::ABR || rc == RateControl::TwoPass
         || rc == RateControl::CBR)
        && bitrate_kbps <= 0.0) {
        VT_FATAL("bitrate target must be positive for ", toString(rc));
    }
    if (rc == RateControl::VBV
        && (vbv_maxrate_kbps <= 0.0 || vbv_buffer_kbits <= 0.0)) {
        VT_FATAL("VBV requires positive maxrate and buffer size");
    }
}

const std::vector<std::string>&
presetNames()
{
    static const std::vector<std::string> names = {
        "ultrafast", "superfast", "veryfast", "faster", "fast",
        "medium",    "slow",      "slower",   "veryslow", "placebo",
    };
    return names;
}

EncoderParams
presetParams(const std::string& name, bool preset_refs)
{
    // Table II of the paper, column by column.
    EncoderParams p;
    p.preset = name;
    int table_refs = 3;

    if (name == "ultrafast") {
        p.aq_mode = 0;
        p.b_adapt = 0;
        p.bframes = 0;
        p.deblock = false;
        p.deblock_alpha = 0;
        p.deblock_beta = 0;
        p.me = MeMethod::Dia;
        p.merange = 16;
        p.partitions = {false, false, false};
        table_refs = 1;
        p.scenecut = 0;
        p.subme = 0;
        p.trellis = 0;
    } else if (name == "superfast") {
        p.me = MeMethod::Dia;
        p.partitions = {false, true, true}; // +i8x8,+i4x4 (intra only)
        table_refs = 1;
        p.subme = 1;
        p.trellis = 0;
    } else if (name == "veryfast") {
        p.me = MeMethod::Hex;
        p.partitions = {true, true, true}; // -p4x4 (we have no p4x4)
        table_refs = 1;
        p.subme = 2;
        p.trellis = 0;
    } else if (name == "faster") {
        p.me = MeMethod::Hex;
        table_refs = 2;
        p.subme = 4;
        p.trellis = 1;
    } else if (name == "fast") {
        p.me = MeMethod::Hex;
        table_refs = 2;
        p.subme = 6;
        p.trellis = 1;
    } else if (name == "medium") {
        // All defaults.
        table_refs = 3;
    } else if (name == "slow") {
        p.me = MeMethod::Hex;
        table_refs = 5;
        p.subme = 8;
        p.trellis = 2;
    } else if (name == "slower") {
        p.b_adapt = 2;
        p.me = MeMethod::Umh;
        p.partitions = {true, true, true}; // all
        table_refs = 8;
        p.subme = 9;
        p.trellis = 2;
    } else if (name == "veryslow") {
        p.b_adapt = 2;
        p.bframes = 8;
        p.me = MeMethod::Umh;
        p.merange = 24;
        table_refs = 16;
        p.subme = 10;
        p.trellis = 2;
    } else if (name == "placebo") {
        p.b_adapt = 2;
        p.bframes = 16;
        p.me = MeMethod::Tesa;
        p.merange = 24;
        table_refs = 16;
        p.subme = 11;
        p.trellis = 2;
    } else {
        VT_FATAL("unknown preset: ", name);
    }

    if (preset_refs) {
        p.refs = table_refs;
    }
    return p;
}

namespace {

/** Shortest round-trip rendering of a double (canonical, locale-free). */
std::string
canonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
canonicalString(const EncoderParams& p)
{
    // Fixed order, one `tag=value;` per active field. Inert fields are
    // omitted entirely (not rendered with defaults) so their values can
    // never split configs that encode identically. The preset label is
    // deliberately absent — presetParams("medium") and a hand-built
    // default EncoderParams are the same encoding.
    std::ostringstream out;
    out << "rc=" << toString(p.rc) << ';';
    switch (p.rc) {
      case RateControl::CQP:
        out << "qp=" << p.qp << ';';
        break;
      case RateControl::CRF:
        out << "crf=" << p.crf << ';';
        break;
      case RateControl::ABR:
      case RateControl::TwoPass:
      case RateControl::CBR:
        out << "kbps=" << canonNumber(p.bitrate_kbps) << ';';
        break;
      case RateControl::VBV:
        out << "crf=" << p.crf << ';'
            << "vbv=" << canonNumber(p.vbv_maxrate_kbps) << ','
            << canonNumber(p.vbv_buffer_kbits) << ';';
        break;
    }
    out << "refs=" << p.refs << ';' << "keyint=" << p.keyint << ';'
        << "bframes=" << p.bframes << ';';
    if (p.bframes > 0) {
        out << "badapt=" << p.b_adapt << ';';
    }
    out << "scenecut=" << p.scenecut << ';' << "me=" << toString(p.me)
        << ';' << "merange=" << p.merange << ';' << "subme=" << p.subme
        << ';' << "parts=" << int(p.partitions.p8x8)
        << int(p.partitions.i4x4) << int(p.partitions.i8x8) << ';'
        << "trellis=" << p.trellis << ';' << "aq=" << p.aq_mode << ';';
    if (p.aq_mode != 0) {
        out << "aqs=" << canonNumber(p.aq_strength) << ';';
    }
    out << "deblock=" << int(p.deblock) << ';';
    if (p.deblock) {
        out << "dbab=" << p.deblock_alpha << ',' << p.deblock_beta << ';';
    }
    // Codegen only where it differs from the default, so every default
    // digest keeps the string it had before codegen was a parameter.
    if (p.codegen.kernel_model == KernelModel::Vector) {
        out << "kernels=vector;";
    }
    if (p.codegen.interchange_deblock) {
        out << "interchange_deblock=1;";
    }
    if (p.codegen.fuse_lookahead) {
        out << "fuse_lookahead=1;";
    }
    return out.str();
}

uint64_t
canonicalDigest(const EncoderParams& p)
{
    const std::string canon = canonicalString(p);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : canon) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
toString(RateControl rc)
{
    switch (rc) {
      case RateControl::CQP:
        return "CQP";
      case RateControl::CRF:
        return "CRF";
      case RateControl::ABR:
        return "ABR";
      case RateControl::TwoPass:
        return "2-Pass ABR";
      case RateControl::CBR:
        return "CBR";
      case RateControl::VBV:
        return "VBV";
    }
    return "?";
}

std::string
toString(MeMethod me)
{
    switch (me) {
      case MeMethod::Dia:
        return "dia";
      case MeMethod::Hex:
        return "hex";
      case MeMethod::Umh:
        return "umh";
      case MeMethod::Esa:
        return "esa";
      case MeMethod::Tesa:
        return "tesa";
    }
    return "?";
}

bool
parseKernelModel(const std::string& name, KernelModel* model)
{
    if (name == "scalar") {
        *model = KernelModel::Scalar;
        return true;
    }
    if (name == "vector") {
        *model = KernelModel::Vector;
        return true;
    }
    return false;
}

std::string
toString(FrameType type)
{
    switch (type) {
      case FrameType::I:
        return "I";
      case FrameType::P:
        return "P";
      case FrameType::B:
        return "B";
    }
    return "?";
}

} // namespace vtrans::codec
