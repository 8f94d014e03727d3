// Executable code pages with W^X discipline.
//
// Pages are mapped read-write, the emitted bytes are copied in, then the
// mapping is flipped to read-execute with mprotect — it is never writable
// and executable at the same time. Each compiled routine owns its own
// mapping, so releasing a routine unmaps exactly its code. x86-64 has
// coherent instruction fetch after mprotect; no explicit icache flush is
// required (unlike ARM).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// The native backend needs x86-64 code generation and POSIX mmap. Other
// hosts (and builds with the emitter compiled out via PSCP_JIT_DISABLE)
// fall back to the interpreter tier — see jitBackendAvailable().
#if defined(__x86_64__) && defined(__linux__) && !defined(PSCP_JIT_DISABLE)
#define PSCP_JIT_BACKEND 1
#else
#define PSCP_JIT_BACKEND 0
#endif

namespace pscp::tep::jit {

class CodeBuf {
 public:
  CodeBuf() = default;
  ~CodeBuf();
  CodeBuf(CodeBuf&& other) noexcept;
  CodeBuf& operator=(CodeBuf&& other) noexcept;
  CodeBuf(const CodeBuf&) = delete;
  CodeBuf& operator=(const CodeBuf&) = delete;

  /// Map fresh pages, copy `code` in, seal read-execute. Returns false
  /// (with `error` set) when the platform refuses executable memory —
  /// callers must then keep the routine interpreted.
  bool install(const std::vector<uint8_t>& code, std::string* error = nullptr);

  [[nodiscard]] const void* entry() const { return base_; }
  [[nodiscard]] size_t size() const { return size_; }

 private:
  void release() noexcept;

  void* base_ = nullptr;
  size_t size_ = 0;  ///< page-rounded mapping size
};

}  // namespace pscp::tep::jit
