#include "metrics/csv.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>

namespace softres::metrics {

void write_series_csv(std::ostream& os,
                      const std::vector<const sim::TimeSeries*>& series) {
  os << "time";
  for (const auto* s : series) os << ',' << s->name;
  os << '\n';
  std::size_t rows = 0;
  for (const auto* s : series) rows = std::max(rows, s->size());
  for (std::size_t i = 0; i < rows; ++i) {
    // Sampled together, so any series supplies the timestamp.
    double t = 0.0;
    for (const auto* s : series) {
      if (i < s->size()) {
        t = s->times[i];
        break;
      }
    }
    os << t;
    for (const auto* s : series) {
      os << ',';
      if (i < s->size()) os << s->values[i];
    }
    os << '\n';
  }
}

void write_xy_csv(std::ostream& os, const std::string& x_name,
                  const std::vector<double>& x,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>>& columns) {
  os << x_name;
  for (const auto& [name, _] : columns) os << ',' << name;
  os << '\n';
  for (std::size_t i = 0; i < x.size(); ++i) {
    os << x[i];
    for (const auto& [_, values] : columns) {
      os << ',';
      if (i < values.size()) os << values[i];
    }
    os << '\n';
  }
}

std::string csv_dir_from_env() {
  const char* dir = std::getenv("SOFTRES_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return std::string();
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    throw std::runtime_error(std::string("SOFTRES_CSV_DIR: '") + dir +
                             "' is not an existing directory");
  }
  return dir;
}

bool export_csv(const std::string& dir, const std::string& name,
                const std::function<void(std::ostream&)>& fn) {
  if (dir.empty()) return false;
  const std::string path = dir + "/" + name;
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("SOFTRES_CSV_DIR: cannot write '" + path +
                             "' (does the directory exist?)");
  }
  fn(file);
  return true;
}

}  // namespace softres::metrics
