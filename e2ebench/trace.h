// Span recorder of the traced benchmark driver.
//
// e2ebench_traced is linked with GNU ld --wrap on the public entry points of
// each module (trace_wrap.cpp); every wrapped call records a span with a
// parent link on the calling thread while recording is on. e2ebench links
// trace_off.cpp instead, so untraced runs execute the program's calls
// directly. Spans stay in memory; aggregates (count, inclusive and self time
// per span name and per layer) are exact, raw spans are kept up to a cap
// per thread for the nesting check.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace e2e::trace {

// True in e2ebench_traced.
bool available();

// Recording on/off (process-wide; off by default).
void set_recording(bool on);

// Forget every span recorded so far in this process.
void reset();

struct Totals {
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;  // outermost occurrences only (no double count)
  std::uint64_t self_ns = 0;  // duration minus wrapped children
};

struct Report {
  std::map<std::string, Totals> spans;   // by span name
  std::map<std::string, Totals> layers;  // by module (bio, likelihood, ...)
  long moves_tried = 0;                  // SprSearch::stats() after each run
  long moves_accepted = 0;
  std::uint64_t raw_spans = 0;           // raw spans kept for checking
  std::uint64_t raw_dropped = 0;         // raw spans past the per-thread cap
  std::uint64_t nest_violations = 0;     // child outside its parent, self < 0
  std::uint64_t max_thread_self_ns = 0;  // max over threads of summed self
};

// Aggregates every thread of this process. Call only while no traced work
// runs.
Report collect();

// Flat text form, so forked ranks can ship their report to rank 0.
std::string serialize(const Report& report);
Report deserialize(const std::string& text);
void merge(Report& into, const Report& from);

}  // namespace e2e::trace
