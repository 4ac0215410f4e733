#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <ctime>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

long unit_index(const std::string& name) {
  if (name.size() < 2 || name[0] != 'u') {
    return -1;
  }
  long index = -1;
  const auto [ptr, ec] =
      std::from_chars(name.data() + 1, name.data() + name.size(), index);
  return ec == std::errc() && ptr == name.data() + name.size() ? index : -1;
}

void CompletionLog::on_transition(const std::string& unit_id,
                                  pa::core::UnitState to) {
  if (!pa::core::is_final(to)) {
    return;
  }
  const std::int64_t at = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  finals_.push_back({unit_id, to, at});
  const std::uint64_t seen = count_.fetch_add(1) + 1;
  if (seen >= wake_at_) {
    wake_at_ = UINT64_MAX;
    cv_.notify_all();
  }
}

std::uint64_t CompletionLog::wait_for(std::uint64_t count,
                                      std::int64_t deadline_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  while (count_.load() < count) {
    const std::int64_t left = deadline_ns - now_ns();
    if (left <= 0) {
      break;
    }
    wake_at_ = count;
    cv_.wait_for(lock, std::chrono::nanoseconds(left));
  }
  return count_.load();
}

std::vector<CompletionLog::Final> CompletionLog::finals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finals_;
}

UnitBook::UnitBook(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed),
      runs_(std::make_unique<std::atomic<std::uint32_t>[]>(capacity)),
      outputs_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)) {
  ids_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    runs_[i].store(0, std::memory_order_relaxed);
    outputs_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t UnitBook::next_index(pa::core::ComputeUnitDescription& d) {
  if (reserved_ >= capacity_) {
    throw std::length_error("UnitBook capacity exceeded");
  }
  const std::size_t index = reserved_++;
  char name[24] = {'u'};
  const auto end = std::to_chars(name + 1, name + sizeof name, index).ptr;
  d.name.assign(name, end);
  return index;
}

void UnitBook::add_ids(const std::vector<std::string>& ids) {
  ids_.insert(ids_.end(), ids.begin(), ids.end());
}

std::function<void()> UnitBook::payload(std::size_t index,
                                        std::atomic<std::int64_t>* start_ns,
                                        std::atomic<std::int64_t>* end_ns) {
  std::atomic<std::uint32_t>* run = &runs_[index];
  std::atomic<std::uint64_t>* out = &outputs_[index];
  const std::uint64_t input = seed_ ^ (index * 0x2545F4914F6CDD1DULL);
  if (start_ns == nullptr) {
    return [run, out, input] {
      run->fetch_add(1, std::memory_order_relaxed);
      out->store(mix64(input), std::memory_order_relaxed);
    };
  }
  return [run, out, input, start = start_ns + index, end = end_ns + index] {
    start->store(now_ns(), std::memory_order_relaxed);
    run->fetch_add(1, std::memory_order_relaxed);
    out->store(mix64(input), std::memory_order_relaxed);
    end->store(now_ns(), std::memory_order_relaxed);
  };
}

std::uint64_t UnitBook::check(const std::vector<CompletionLog::Final>& finals,
                              Result& result) const {
  std::unordered_map<std::string, std::size_t> slot;
  slot.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    slot.emplace(ids_[i], i);
  }
  std::vector<int> terminal(ids_.size(), 0);
  std::vector<pa::core::UnitState> state(ids_.size(),
                                         pa::core::UnitState::kNew);
  std::uint64_t unknown = 0;
  for (const CompletionLog::Final& f : finals) {
    const auto it = slot.find(f.unit_id);
    if (it == slot.end()) {
      ++unknown;
      continue;
    }
    ++terminal[it->second];
    state[it->second] = f.state;
  }
  if (unknown > 0) {
    result.error(std::to_string(unknown) +
                 " terminal transitions for units never submitted");
  }
  std::uint64_t not_done = 0;
  std::uint64_t bad_terminal = 0;
  std::uint64_t bad_runs = 0;
  std::uint64_t bad_output = 0;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::uint32_t runs = runs_[i].load();
    if (terminal[i] != 1) {
      ++bad_terminal;
      continue;
    }
    if (state[i] == pa::core::UnitState::kDone) {
      if (runs != 1) {
        ++bad_runs;
      } else if (outputs_[i].load() !=
                 mix64(seed_ ^ (i * 0x2545F4914F6CDD1DULL))) {
        ++bad_output;
      }
    } else {
      ++not_done;
      if (runs > 1) {
        ++bad_runs;
      }
    }
  }
  if (bad_terminal > 0) {
    result.error(std::to_string(bad_terminal) +
                 " units without exactly one terminal state");
  }
  if (bad_runs > 0) {
    result.error(std::to_string(bad_runs) +
                 " units whose payload ran a wrong number of times");
  }
  if (bad_output > 0) {
    result.error(std::to_string(bad_output) + " units with a wrong output");
  }
  return not_done;
}

}  // namespace perfbench
