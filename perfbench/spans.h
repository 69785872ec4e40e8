#ifndef CKNN_PERFBENCH_SPANS_H_
#define CKNN_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace cknn::perfbench {

using Clock = std::chrono::steady_clock;

/// \brief In-memory span log of one benchmark thread.
///
/// A span is a call into one of the system's public functions, timed from
/// the benchmark side: name, start and end (ns since the run's epoch), the
/// id of the span that caused it (0 for a root), and the tick or request
/// it belongs to. Each thread owns its log, so recording takes no lock;
/// span ids carry the thread number so logs merge without clashes. Logs
/// are written out once, when the run ends.
class SpanLog {
 public:
  SpanLog(std::uint32_t thread, Clock::time_point epoch)
      : thread_(thread), epoch_(epoch) {}

  /// Records a finished span; returns its id.
  std::uint64_t Add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::uint64_t key) {
    spans_.push_back(Span{name, Ns(start), Ns(end), parent, key});
    return IdOf(spans_.size() - 1);
  }

  /// Reserves the id of a span whose end is not known yet (a root whose
  /// children are recorded first); `Close` completes it.
  std::uint64_t Open(const char* name, std::uint64_t parent,
                     std::uint64_t key) {
    const std::int64_t now = Ns(Clock::now());
    spans_.push_back(Span{name, now, now, parent, key});
    return IdOf(spans_.size() - 1);
  }

  void Close(std::uint64_t id) {
    spans_[static_cast<std::size_t>((id & kIndexMask) - 1)].end_ns =
        Ns(Clock::now());
  }

  /// One line per span: name start_ns end_ns id parent key.
  void Write(std::FILE* out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%s %lld %lld %llu %llu %llu\n", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(IdOf(i)),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.key));
    }
  }

 private:
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << 40) - 1;

  struct Span {
    const char* name;  ///< A string literal.
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t parent;
    std::uint64_t key;
  };

  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::uint64_t IdOf(std::size_t index) const {
    return (std::uint64_t{thread_} << 40) | (index + 1);
  }

  std::uint32_t thread_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times one call into the system, stores its duration in `*ms` (if given)
/// and records it in `log` (if tracing). With a null log it only reads the
/// clock, so traced and untraced runs execute the same code around each
/// call, and a metric taken from `*ms` is the span's duration.
template <typename Fn>
auto Timed(SpanLog* log, const char* name, std::uint64_t parent,
           std::uint64_t key, double* ms, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  const Clock::time_point end = Clock::now();
  if (log != nullptr) log->Add(name, start, end, parent, key);
  if (ms != nullptr) {
    *ms = std::chrono::duration<double, std::milli>(end - start).count();
  }
  return result;
}

}  // namespace cknn::perfbench

#endif  // CKNN_PERFBENCH_SPANS_H_
