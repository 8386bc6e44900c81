#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ntom/util/json.hpp"

namespace bench {

namespace {

const std::chrono::steady_clock::time_point process_epoch =
    std::chrono::steady_clock::now();

std::atomic<bool> tracing_on{false};

struct span {
  std::string name;
  std::string tag;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t cell = -1;
};

struct aggregate {
  std::int64_t count = 0;
  std::int64_t busy = 0;
  std::int64_t first = -1;  ///< begin of the first call.
  std::int64_t last = -1;   ///< end of the last call.
};

/// One recording thread's spans and aggregates. Written only by its
/// thread; read by write_spans after that thread has been joined.
struct thread_buffer {
  std::size_t thread = 0;
  std::vector<span> spans;
  std::map<std::pair<std::int64_t, std::string>, aggregate> folds;
  // Last fold target: consecutive calls of one wrapper skip the lookup.
  std::int64_t last_cell = -2;
  std::string last_name;
  aggregate* last = nullptr;
};

std::mutex buffers_mutex;
std::vector<std::shared_ptr<thread_buffer>> buffers;  // guarded.

thread_local std::int64_t thread_cell = -1;

thread_buffer& local_buffer() {
  // The registry keeps each buffer alive after its thread exits: grid
  // workers are created per run_grid call.
  thread_local thread_buffer* local = [] {
    auto buffer = std::make_shared<thread_buffer>();
    const std::lock_guard<std::mutex> lock(buffers_mutex);
    buffer->thread = buffers.size();
    buffers.push_back(buffer);
    return buffer.get();
  }();
  return *local;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - process_epoch)
      .count();
}

bool tracing() { return tracing_on.load(std::memory_order_relaxed); }

void set_tracing(bool on) { tracing_on.store(on, std::memory_order_relaxed); }

std::int64_t current_cell() { return thread_cell; }

void set_current_cell(std::int64_t cell) { thread_cell = cell; }

void record_span(const std::string& name, std::int64_t begin,
                 std::int64_t end, const std::string& tag) {
  local_buffer().spans.push_back({name, tag, begin, end, thread_cell});
}

void fold_call(const std::string& name, std::int64_t begin, std::int64_t end) {
  thread_buffer& buffer = local_buffer();
  if (buffer.last == nullptr || buffer.last_cell != thread_cell ||
      buffer.last_name != name) {
    buffer.last = &buffer.folds[{thread_cell, name}];
    buffer.last_cell = thread_cell;
    buffer.last_name = name;
  }
  aggregate& agg = *buffer.last;
  ++agg.count;
  agg.busy += end - begin;
  if (agg.first < 0) agg.first = begin;
  agg.last = end;
}

void write_spans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const std::lock_guard<std::mutex> lock(buffers_mutex);
  for (const std::shared_ptr<thread_buffer>& buffer : buffers) {
    for (const span& s : buffer->spans) {
      std::fprintf(out,
                   "{\"type\": \"span\", \"name\": %s, \"thread\": %zu, "
                   "\"cell\": %lld, \"b\": %lld, \"e\": %lld, \"tag\": %s}\n",
                   ntom::json_quote(s.name).c_str(), buffer->thread,
                   static_cast<long long>(s.cell),
                   static_cast<long long>(s.begin),
                   static_cast<long long>(s.end),
                   ntom::json_quote(s.tag).c_str());
    }
    for (const auto& [key, agg] : buffer->folds) {
      std::fprintf(out,
                   "{\"type\": \"fold\", \"name\": %s, \"thread\": %zu, "
                   "\"cell\": %lld, \"count\": %lld, \"busy\": %lld, "
                   "\"b\": %lld, \"e\": %lld}\n",
                   ntom::json_quote(key.second).c_str(), buffer->thread,
                   static_cast<long long>(key.first),
                   static_cast<long long>(agg.count),
                   static_cast<long long>(agg.busy),
                   static_cast<long long>(agg.first),
                   static_cast<long long>(agg.last));
    }
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace bench
