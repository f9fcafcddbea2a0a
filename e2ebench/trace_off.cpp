// The untraced driver: no interposition, nothing recorded.
#include "trace.h"

namespace e2e::trace {

bool available() { return false; }
void set_recording(bool) {}
void reset() {}
Report collect() { return {}; }

}  // namespace e2e::trace
