#include "analysis/round_trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wlsync::analysis {

void RoundTrace::on_annotation(std::int32_t pid, double time,
                               const proc::Annotation& annotation) {
  const RoundEvent event{pid, annotation.round, time, annotation.value,
                         annotation.value2};
  switch (annotation.type) {
    case proc::Annotation::Type::kRoundBegin:
      begins_.push_back(event);
      index_begin(annotation.round, pid, time);
      break;
    case proc::Annotation::Type::kUpdate:
      updates_.push_back(event);
      break;
    case proc::Annotation::Type::kJoined:
      joins_.push_back(event);
      break;
    case proc::Annotation::Type::kCustom:
      break;
  }
}

void RoundTrace::index_begin(std::int32_t round, std::int32_t pid,
                             double time) {
  if (pid < 0) return;  // no process has a negative id
  const auto at = [](std::int32_t row, std::int32_t stride, std::int32_t col) {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(stride) +
           static_cast<std::size_t>(col);
  };
  const std::int32_t first = rounds_ == 0 ? round : std::min(first_round_, round);
  const std::int32_t end = rounds_ == 0
                               ? round + 1
                               : std::max(first_round_ + rounds_, round + 1);
  const std::int32_t stride = std::max(stride_, pid + 1);
  if (first != first_round_ || stride != stride_) {
    // Re-layout: a round below the first row or a pid wider than the rows
    // (both happen only while the first rounds fill in).
    std::vector<double> table(at(end - first, stride, 0),
                              std::numeric_limits<double>::quiet_NaN());
    for (std::int32_t r = 0; r < rounds_; ++r) {
      for (std::int32_t p = 0; p < stride_; ++p) {
        table[at(r + first_round_ - first, stride, p)] =
            begin_table_[at(r, stride_, p)];
      }
    }
    begin_table_ = std::move(table);
    first_round_ = first;
    stride_ = stride;
  } else if (end - first != rounds_) {
    begin_table_.resize(at(end - first, stride, 0),
                        std::numeric_limits<double>::quiet_NaN());
  }
  rounds_ = end - first;
  begin_table_[at(round - first_round_, stride_, pid)] = time;
}

double RoundTrace::indexed_begin(std::int32_t round,
                                 std::int32_t pid) const noexcept {
  if (pid < 0 || pid >= stride_ || round < first_round_ ||
      round - first_round_ >= rounds_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return begin_table_[static_cast<std::size_t>(round - first_round_) *
                          static_cast<std::size_t>(stride_) +
                      static_cast<std::size_t>(pid)];
}

std::vector<double> RoundTrace::begin_times(
    std::int32_t round, const std::vector<std::int32_t>& ids) const {
  std::vector<double> times;
  times.reserve(ids.size());
  for (std::int32_t id : ids) {
    const double time = indexed_begin(round, id);
    if (std::isnan(time)) return {};
    times.push_back(time);
  }
  return times;
}

double RoundTrace::begin_spread(std::int32_t round,
                                const std::vector<std::int32_t>& ids) const {
  const auto times = begin_times(round, ids);
  if (times.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  return *hi - *lo;
}

std::int32_t RoundTrace::last_complete_round(
    const std::vector<std::int32_t>& ids) const {
  std::int32_t round = -1;
  while (!begin_times(round + 1, ids).empty()) ++round;
  return round;
}

double RoundTrace::max_abs_adjustment(const std::vector<std::int32_t>& ids,
                                      std::int32_t from_round) const {
  double worst = 0.0;
  for (const RoundEvent& update : updates_) {
    if (update.round < from_round) continue;
    if (std::find(ids.begin(), ids.end(), update.pid) == ids.end()) continue;
    worst = std::max(worst, std::abs(update.value));
  }
  return worst;
}

void RoundTrace::absorb(const RoundTrace& other) {
  const auto merge_into = [](std::vector<RoundEvent>& dst,
                             const std::vector<RoundEvent>& src) {
    if (src.empty()) return;
    const auto mid = static_cast<std::ptrdiff_t>(dst.size());
    dst.insert(dst.end(), src.begin(), src.end());
    std::inplace_merge(dst.begin(), dst.begin() + mid, dst.end(),
                       [](const RoundEvent& a, const RoundEvent& b) {
                         if (a.real_time != b.real_time) {
                           return a.real_time < b.real_time;
                         }
                         return a.pid < b.pid;
                       });
  };
  merge_into(begins_, other.begins_);
  merge_into(updates_, other.updates_);
  merge_into(joins_, other.joins_);
  for (const RoundEvent& begin : other.begins_) {
    index_begin(begin.round, begin.pid, begin.real_time);
  }
}

void RoundTrace::absorb_all(const std::vector<RoundTrace>& others) {
  const auto before = [](const RoundEvent& a, const RoundEvent& b) {
    if (a.real_time != b.real_time) return a.real_time < b.real_time;
    return a.pid < b.pid;
  };
  // Linear k-way merge: each step scans the (small) source set for the
  // minimal head.  k is the shard count, so the scan is cheaper than the
  // buffer churn of repeated inplace_merge calls.
  const auto merge_all = [&](std::vector<RoundEvent> RoundTrace::*member) {
    std::vector<const std::vector<RoundEvent>*> sources;
    sources.push_back(&(this->*member));
    std::size_t total = (this->*member).size();
    for (const RoundTrace& other : others) {
      const std::vector<RoundEvent>& src = other.*member;
      if (src.empty()) continue;
      sources.push_back(&src);
      total += src.size();
    }
    if (sources.size() == 1) return;
    std::vector<RoundEvent> merged;
    merged.reserve(total);
    std::vector<std::size_t> cursor(sources.size(), 0);
    while (merged.size() < total) {
      std::size_t best = sources.size();
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (cursor[s] >= sources[s]->size()) continue;
        if (best == sources.size() ||
            before((*sources[s])[cursor[s]], (*sources[best])[cursor[best]])) {
          best = s;
        }
      }
      merged.push_back((*sources[best])[cursor[best]]);
      ++cursor[best];
    }
    this->*member = std::move(merged);
  };
  merge_all(&RoundTrace::begins_);
  merge_all(&RoundTrace::updates_);
  merge_all(&RoundTrace::joins_);

  for (const RoundTrace& other : others) {
    for (const RoundEvent& begin : other.begins_) {
      index_begin(begin.round, begin.pid, begin.real_time);
    }
  }
}

}  // namespace wlsync::analysis
