#include "tep/jit/runtime.hpp"

#include <algorithm>

#include "support/bits.hpp"
#include "support/diag.hpp"
#include "tep/isa.hpp"

namespace pscp::tep::jit {

void EffectLog::grow() {
  const size_t capacity = std::max(kInitialCapacity, 2 * capacity_);
  auto data = std::make_unique<TimedEffect[]>(capacity);
  std::copy_n(data_.get(), size_, data.get());
  data_ = std::move(data);
  capacity_ = capacity;
}

namespace {

/// Append `e` at the context's log cursor, growing the log when it is full
/// (the emitted code's room check sent the effect here).
void appendEffect(JitContext* ctx, const TimedEffect& e) {
  if (ctx->logAt == ctx->logEnd) {
    EffectLog& log = *ctx->log;
    log.setTail(ctx->logAt);
    log.grow();
    ctx->logAt = log.tail();
    ctx->logEnd = log.limit();
  }
  *ctx->logAt++ = e;
}

/// A data-memory operand's place in the interpreter's step sequence. The
/// helper runs after its instruction's microprogram length was charged,
/// so the first memory micro-op's step is `ctx->cycles - lead`; an
/// external operand then takes two steps per chunk (wait state + access),
/// both on the external bus, an internal one a single step.
struct MemAccess {
  MemAccess(JitContext* ctx, int32_t addr, int32_t packed)
      : bytes(packed & 0xFF),
        chunks((packed >> 8) & 0xFF),
        bytesPerChunk(ctx->config->bytesPerWord()),
        external(isExternalAddress(addr)),
        firstStep(ctx->cycles - ((packed >> 16) & 0xFF)) {
    // Externality is decided by the base address, like needsExternalBus(mar).
    if (external && ctx->logBus != 0)
      appendEffect(ctx, {static_cast<int32_t>(firstStep), 2 * chunks, 0,
                         TimedEffect::Kind::kBus});
  }

  /// The step whose access touches byte `i` (where a fault on it lands).
  [[nodiscard]] int64_t stepOfByte(int i) const {
    const int chunk = i / bytesPerChunk;
    return external ? firstStep + 2 * chunk + 1 : firstStep + chunk;
  }

  /// External accesses pay one wait state per chunk micro-op.
  void charge(JitContext* ctx) const {
    if (external) ctx->cycles += chunks;
  }

  int bytes;
  int chunks;
  int bytesPerChunk;
  bool external;
  int64_t firstStep;
};

/// Run `body`, trapping pscp::Error (and any other exception) into
/// *ctx->error so nothing unwinds through the emitted frame.
template <typename Fn>
int32_t guarded(JitContext* ctx, Fn&& body) noexcept {
  try {
    body();
    return 0;
  } catch (const Error& e) {
    *ctx->error = e.what();
    return 1;
  } catch (const std::exception& e) {
    *ctx->error = e.what();
    return 1;
  }
}

}  // namespace

extern "C" {

int32_t pscpJitLoad(JitContext* ctx, int32_t addr, int32_t packed) noexcept {
  return guarded(ctx, [&] {
    const MemAccess access(ctx, addr, packed);
    uint32_t v = 0;
    int i = 0;
    try {
      for (; i < access.bytes; ++i) {
        const uint8_t* cell = ctx->mem.byteAt(addr + i);
        v |= static_cast<uint32_t>(cell != nullptr ? *cell : ctx->host->readByte(addr + i))
             << (8 * i);
      }
    } catch (const Error&) {
      ctx->faultStep = access.stepOfByte(i);
      throw;
    }
    access.charge(ctx);
    ctx->hvalue = v;
  });
}

int32_t pscpJitStore(JitContext* ctx, int32_t addr, uint32_t value,
                     int32_t packed) noexcept {
  return guarded(ctx, [&] {
    const MemAccess access(ctx, addr, packed);
    int i = 0;
    try {
      for (; i < access.bytes; ++i) {
        const auto byte = static_cast<uint8_t>((value >> (8 * i)) & 0xFF);
        if (uint8_t* cell = ctx->mem.byteAt(addr + i))
          *cell = byte;
        else
          ctx->host->writeByte(addr + i, byte);
      }
    } catch (const Error&) {
      ctx->faultStep = access.stepOfByte(i);
      throw;
    }
    access.charge(ctx);
  });
}

int32_t pscpJitPortRead(JitContext* ctx, int32_t port) noexcept {
  return guarded(ctx, [&] { ctx->hvalue = ctx->host->readPort(port); });
}

int32_t pscpJitPortWrite(JitContext* ctx, int32_t port, uint32_t value,
                         int32_t skew) noexcept {
  return guarded(ctx, [&] {
    // Latched now so the routine reads back its own write; the write
    // itself (log record, timestamp) happens when the replay reaches it.
    ctx->host->latchPort(port, value);
    appendEffect(ctx, {static_cast<int32_t>(ctx->cycles + skew), port, value,
                       TimedEffect::Kind::kPortWrite});
  });
}

int32_t pscpJitEvSet(JitContext* ctx, int32_t index, int32_t skew) noexcept {
  return guarded(ctx, [&] {
    appendEffect(ctx,
                 {static_cast<int32_t>(ctx->cycles + skew), index, 0, TimedEffect::Kind::kRaise});
  });
}

int32_t pscpJitCondSet(JitContext* ctx, int32_t index, int32_t value) noexcept {
  return guarded(ctx, [&] { ctx->host->setCondition(index, value != 0); });
}

int32_t pscpJitCondTest(JitContext* ctx, int32_t index) noexcept {
  return guarded(ctx,
                 [&] { ctx->hvalue = ctx->host->testCondition(index) ? 1u : 0u; });
}

int32_t pscpJitStateTest(JitContext* ctx, int32_t index) noexcept {
  return guarded(ctx,
                 [&] { ctx->hvalue = ctx->host->testState(index) ? 1u : 0u; });
}

int32_t pscpJitDivMod(JitContext* ctx, uint32_t a, uint32_t b, int32_t packed,
                      int32_t pc) noexcept {
  return guarded(ctx, [&] {
    const int w = packed & 0xFF;
    const bool isSigned = (packed & (1 << 8)) != 0;
    const bool isDiv = (packed & (1 << 9)) != 0;
    const uint32_t mask = maskBits(w);
    if ((b & mask) == 0)
      // The interpreter reports pc_ - 1, i.e. the ISA index of the
      // dividing instruction (pc was advanced at fetch).
      fail("TEP%d: division by zero at PC %d", ctx->tepId, pc);
    uint32_t result = 0;
    if (isSigned) {
      // In 64 bits: INT32_MIN / -1 wraps to INT32_MIN (remainder 0).
      const int64_t sa = signExtend(a & mask, w);
      const int64_t sb = signExtend(b & mask, w);
      result = static_cast<uint32_t>(isDiv ? sa / sb : sa % sb);
    } else {
      const uint32_t ua = a & mask;
      const uint32_t ub = b & mask;
      result = isDiv ? ua / ub : ua % ub;
    }
    ctx->hvalue = truncBits(result, w);
  });
}

int32_t pscpJitCustom(JitContext* ctx, int32_t index, uint32_t a, uint32_t b) noexcept {
  return guarded(ctx, [&] {
    PSCP_ASSERT(index >= 0 &&
                static_cast<size_t>(index) < ctx->config->customInstructions.size());
    const hwlib::CustomInstr& ci =
        ctx->config->customInstructions[static_cast<size_t>(index)];
    const uint32_t cmask = maskBits(ci.width);
    uint32_t v = a & cmask;
    for (const hwlib::CustomStep& step : ci.steps) {
      const uint32_t rhs =
          step.useConst ? static_cast<uint32_t>(step.konst) & cmask : b & cmask;
      switch (step.op) {
        case hwlib::CustomOp::Add: v = v + rhs; break;
        case hwlib::CustomOp::Sub: v = v - rhs; break;
        case hwlib::CustomOp::And: v = v & rhs; break;
        case hwlib::CustomOp::Or: v = v | rhs; break;
        case hwlib::CustomOp::Xor: v = v ^ rhs; break;
        case hwlib::CustomOp::Shl: v = v << (rhs & 31); break;
        case hwlib::CustomOp::Shr: v = (v & cmask) >> (rhs & 31); break;
        case hwlib::CustomOp::Sar:
          v = static_cast<uint32_t>(signExtend(v & cmask, ci.width) >> (rhs & 31));
          break;
        case hwlib::CustomOp::Neg: v = 0 - v; break;
        case hwlib::CustomOp::Not: v = ~v; break;
      }
      v &= cmask;
    }
    ctx->hvalue = v;
  });
}

int32_t pscpJitErrRunOff(JitContext* ctx, int32_t pc) noexcept {
  guarded(ctx, [&] {
    fail("TEP%d: PC %d ran off the program (size %zu)", ctx->tepId, pc,
         ctx->programSize);
  });
  return 1;
}

int32_t pscpJitErrStackOver(JitContext* ctx) noexcept {
  guarded(ctx, [&] { fail("TEP%d: call stack overflow", ctx->tepId); });
  return 1;
}

int32_t pscpJitErrStackUnder(JitContext* ctx) noexcept {
  guarded(ctx,
          [&] { fail("TEP%d: RET with empty call stack", ctx->tepId); });
  return 1;
}

int32_t pscpJitErrBudget(JitContext* ctx) noexcept {
  guarded(ctx, [&] {
    ctx->overBudget = true;
    fail("PSCP configuration cycle exceeded %lld machine cycles",
         static_cast<long long>(ctx->budgetLimit));
  });
  return 1;
}

}  // extern "C"

}  // namespace pscp::tep::jit
