#pragma once
// Trace export: CSV serialization of pulse traces for external analysis and
// plotting (one row per pulse, plus a per-round quality summary).
//
// Kept for crusader_cli's --pulses-csv/--rounds-csv only; ROADMAP's
// bench/example-zoo item retires both together once sweep_cli --explain
// exists.

#include <iosfwd>

#include "sim/trace.hpp"

namespace crusader::sim {

/// Columns: node, role (honest|faulty), round (1-based), real_time,
/// local_time.
void write_pulses_csv(const PulseTrace& trace, std::ostream& os);

/// Columns: round (1-based), skew, min_pulse, max_pulse — honest nodes only,
/// complete rounds only.
void write_rounds_csv(const PulseTrace& trace, std::ostream& os);

}  // namespace crusader::sim
