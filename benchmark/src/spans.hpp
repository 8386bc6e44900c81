// In-memory span recorder for the traced benchmark run.
//
// Coarse calls into a layer (a grid cell, an estimator fit, a topology
// generation) become spans {name, thread, begin, end, cell, tag}.
// Per-interval calls (estimator infer, chunk consume, reader queries)
// would cost more to record than they take, so they are folded per
// (thread, cell, name) into a call count and a busy time. Everything
// stays in per-thread buffers until write_spans() emits one JSON object
// per line; run.py derives self times and the per-layer metrics from
// that file.
//
// Recording is switched on and off globally (set_tracing) so one traced
// run can alternate untraced and traced operations on the same inputs.
#pragma once

#include <cstdint>
#include <string>

namespace bench {

/// Nanoseconds on the steady clock since process start.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] bool tracing();
void set_tracing(bool on);

/// Grid cell the calling thread is evaluating (-1 outside any cell).
/// Spans and folded calls are attributed to it.
[[nodiscard]] std::int64_t current_cell();
void set_current_cell(std::int64_t cell);

/// Records a finished span on the calling thread. `tag` (may be empty)
/// qualifies cell spans: "materialized", "live" or "replay".
void record_span(const std::string& name, std::int64_t begin,
                 std::int64_t end, const std::string& tag = {});

/// Folds one call [begin, end) into the calling thread's aggregate for
/// (current cell, name): a call count, the summed duration, and the
/// begin of the first and end of the last call.
void fold_call(const std::string& name, std::int64_t begin, std::int64_t end);

/// Writes every span and folded aggregate recorded so far as JSONL.
/// Call only after every recording thread has been joined.
void write_spans(const std::string& path);

/// Records [construction, destruction) as a span when tracing is on at
/// construction.
class scoped_span {
 public:
  explicit scoped_span(const std::string& name, std::string tag = {})
      : name_(&name), tag_(std::move(tag)), begin_(tracing() ? now_ns() : -1) {}
  ~scoped_span() {
    if (begin_ >= 0) record_span(*name_, begin_, now_ns(), tag_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  const std::string* name_;
  std::string tag_;
  std::int64_t begin_;
};

/// Folds [construction, destruction) into the (cell, name) aggregate
/// when tracing is on at construction.
class folded_call {
 public:
  explicit folded_call(const std::string& name)
      : name_(&name), begin_(tracing() ? now_ns() : -1) {}
  ~folded_call() {
    if (begin_ >= 0) fold_call(*name_, begin_, now_ns());
  }
  folded_call(const folded_call&) = delete;
  folded_call& operator=(const folded_call&) = delete;

 private:
  const std::string* name_;
  std::int64_t begin_;
};

}  // namespace bench
