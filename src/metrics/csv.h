#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/sampler.h"

namespace softres::metrics {

/// Plot-ready exports: the figure benches can drop their series as CSV files
/// (gnuplot/matplotlib friendly) next to the printed tables.

/// Write aligned time series as columns: time,<name1>,<name2>,...
/// Series are matched by index; shorter series pad with empty cells.
void write_series_csv(std::ostream& os,
                      const std::vector<const sim::TimeSeries*>& series);

/// Write rows of (x, y1, y2, ...) with a header line.
void write_xy_csv(std::ostream& os, const std::string& x_name,
                  const std::vector<double>& x,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>>& columns);

/// Directory from SOFTRES_CSV_DIR, or empty when unset or "". Throws
/// std::runtime_error naming SOFTRES_CSV_DIR and the path when it is set to
/// anything but an existing directory, so benches fail before any trial.
std::string csv_dir_from_env();

/// Open `dir/name` and write via `fn`; no-op when dir is empty. Returns true
/// when a file was written. Throws std::runtime_error naming SOFTRES_CSV_DIR
/// and the path when the file cannot be opened (e.g. a missing directory),
/// so a mistyped export directory fails loudly instead of writing nothing.
bool export_csv(const std::string& dir, const std::string& name,
                const std::function<void(std::ostream&)>& fn);

}  // namespace softres::metrics
