#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench::trace {

namespace {

struct Record {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t thread;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
  std::vector<std::uint64_t> open;  // ids of open spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_root{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local() {
  thread_local ThreadBuffer* buf = [] {
    std::lock_guard lk(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.back()->records.reserve(1 << 12);
    return g_buffers.back().get();
  }();
  return *buf;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  ThreadBuffer& buf = local();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.open.empty() ? g_root.load(std::memory_order_relaxed)
                             : buf.open.back();
  buf.open.push_back(id_);
  start_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t end = now_ns();
  ThreadBuffer& buf = local();
  buf.open.pop_back();
  buf.records.push_back({name_, id_, parent_, start_, end, buf.thread});
}

void set_root(std::uint64_t id) noexcept {
  g_root.store(id, std::memory_order_relaxed);
}

std::size_t span_count() {
  std::lock_guard lk(g_mu);
  std::size_t n = 0;
  for (const auto& b : g_buffers) n += b->records.size();
  return n;
}

void write_jsonl(const std::filesystem::path& path) {
  std::lock_guard lk(g_mu);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  for (auto& b : g_buffers) {
    for (const Record& r : b->records) {
      out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"thread\":" << r.thread
          << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << "}\n";
    }
    b->records.clear();
  }
}

}  // namespace perfbench::trace
