// Report plumbing shared by both drivers: the flat text form forked ranks
// write for rank 0, and merging.
#include <sstream>

#include "trace.h"

namespace e2e::trace {

namespace {

void add(Totals& into, const Totals& from) {
  into.count += from.count;
  into.incl_ns += from.incl_ns;
  into.self_ns += from.self_ns;
}

}  // namespace

std::string serialize(const Report& report) {
  std::ostringstream out;
  for (const auto& [name, t] : report.spans)
    out << "span " << name << ' ' << t.count << ' ' << t.incl_ns << ' '
        << t.self_ns << '\n';
  for (const auto& [name, t] : report.layers)
    out << "layer " << name << ' ' << t.count << ' ' << t.incl_ns << ' '
        << t.self_ns << '\n';
  out << "moves " << report.moves_tried << ' ' << report.moves_accepted << '\n'
      << "raw " << report.raw_spans << ' ' << report.raw_dropped << ' '
      << report.nest_violations << ' ' << report.max_thread_self_ns << '\n';
  return out.str();
}

Report deserialize(const std::string& text) {
  Report report;
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    if (kind == "span" || kind == "layer") {
      std::string name;
      Totals t;
      in >> name >> t.count >> t.incl_ns >> t.self_ns;
      (kind == "span" ? report.spans : report.layers)[name] = t;
    } else if (kind == "moves") {
      in >> report.moves_tried >> report.moves_accepted;
    } else if (kind == "raw") {
      in >> report.raw_spans >> report.raw_dropped >> report.nest_violations >>
          report.max_thread_self_ns;
    }
  }
  return report;
}

void merge(Report& into, const Report& from) {
  for (const auto& [name, t] : from.spans) add(into.spans[name], t);
  for (const auto& [name, t] : from.layers) add(into.layers[name], t);
  into.moves_tried += from.moves_tried;
  into.moves_accepted += from.moves_accepted;
  into.raw_spans += from.raw_spans;
  into.raw_dropped += from.raw_dropped;
  into.nest_violations += from.nest_violations;
  if (from.max_thread_self_ns > into.max_thread_self_ns)
    into.max_thread_self_ns = from.max_thread_self_ns;
}

}  // namespace e2e::trace
