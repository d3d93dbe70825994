#include "trace.h"

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

uint64_t SpanLog::Begin(const std::string& name, uint64_t parent,
                        uint64_t cell) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.cell = cell;
  s.name = name;
  s.start_s = SecondsSince(origin_);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double SpanLog::End(uint64_t id) {
  Span& s = spans_[id - 1];
  s.end_s = SecondsSince(origin_);
  return s.end_s - s.start_s;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"cell\":%llu,\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.cell), s.name.c_str(),
                 s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

namespace heap {
namespace {
std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void Account(int64_t delta) {
  const int64_t now = g_live.fetch_add(delta, std::memory_order_relaxed) +
                      delta;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}
}  // namespace

void Enable() { g_enabled.store(true, std::memory_order_relaxed); }
int64_t Live() { return g_live.load(std::memory_order_relaxed); }
void ResetPeak() { g_peak.store(Live(), std::memory_order_relaxed); }
int64_t Peak() { return g_peak.load(std::memory_order_relaxed); }

namespace {

void* Allocate(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_enabled.load(std::memory_order_relaxed)) {
    Account(static_cast<int64_t>(malloc_usable_size(p)));
  }
  return p;
}

void Free(void* p) {
  if (p == nullptr) return;
  if (g_enabled.load(std::memory_order_relaxed)) {
    Account(-static_cast<int64_t>(malloc_usable_size(p)));
  }
  std::free(p);
}

}  // namespace
}  // namespace heap

}  // namespace perfbench

void* operator new(size_t size) { return perfbench::heap::Allocate(size); }
void* operator new[](size_t size) { return perfbench::heap::Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::heap::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::heap::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { perfbench::heap::Free(p); }
void operator delete[](void* p) noexcept { perfbench::heap::Free(p); }
void operator delete(void* p, size_t) noexcept { perfbench::heap::Free(p); }
void operator delete[](void* p, size_t) noexcept { perfbench::heap::Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::heap::Free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::heap::Free(p);
}
