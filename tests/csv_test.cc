#include "metrics/csv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace softres::metrics {
namespace {

TEST(CsvTest, SeriesColumnsAligned) {
  sim::TimeSeries a{"cpu", {1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}};
  sim::TimeSeries b{"gc", {1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}};
  std::ostringstream os;
  write_series_csv(os, {&a, &b});
  EXPECT_EQ(os.str(),
            "time,cpu,gc\n1,10,1\n2,20,2\n3,30,3\n");
}

TEST(CsvTest, ShorterSeriesPadded) {
  sim::TimeSeries a{"x", {1.0, 2.0}, {5.0, 6.0}};
  sim::TimeSeries b{"y", {1.0}, {7.0}};
  std::ostringstream os;
  write_series_csv(os, {&a, &b});
  EXPECT_EQ(os.str(), "time,x,y\n1,5,7\n2,6,\n");
}

TEST(CsvTest, XyColumns) {
  std::ostringstream os;
  write_xy_csv(os, "workload", {5000.0, 6000.0},
               {{"a", {1.0, 2.0}}, {"b", {3.0, 4.0}}});
  EXPECT_EQ(os.str(), "workload,a,b\n5000,1,3\n6000,2,4\n");
}

TEST(CsvTest, EnvDirDisabledByDefault) {
  ::unsetenv("SOFTRES_CSV_DIR");
  EXPECT_TRUE(csv_dir_from_env().empty());
  EXPECT_FALSE(export_csv("", "x.csv", [](std::ostream&) {}));
}

TEST(CsvTest, ExportWritesFile) {
  ::setenv("SOFTRES_CSV_DIR", "/tmp", 1);
  EXPECT_EQ(csv_dir_from_env(), "/tmp");
  ::unsetenv("SOFTRES_CSV_DIR");
  const std::string name = "softres_csv_test.csv";
  ASSERT_TRUE(export_csv("/tmp", name,
                         [](std::ostream& os) { os << "hello\n"; }));
  std::ifstream in("/tmp/" + name);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello");
  std::remove(("/tmp/" + name).c_str());
}

TEST(CsvTest, EnvDirMustBeAnExistingDirectory) {
  // Checked when read, so a bench fails before its first trial rather than
  // at its first export.
  for (const char* bad : {"/nonexistent_dir_softres", "/dev/null"}) {
    ::setenv("SOFTRES_CSV_DIR", bad, 1);
    std::string what;
    try {
      csv_dir_from_env();
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    ::unsetenv("SOFTRES_CSV_DIR");
    EXPECT_NE(what.find("SOFTRES_CSV_DIR"), std::string::npos) << bad;
    EXPECT_NE(what.find(bad), std::string::npos) << what;
  }
  ::setenv("SOFTRES_CSV_DIR", "", 1);
  EXPECT_TRUE(csv_dir_from_env().empty());
  ::unsetenv("SOFTRES_CSV_DIR");
}

TEST(CsvTest, ExportFailsOnBadDirectory) {
  EXPECT_THROW(export_csv("/nonexistent_dir_softres", "x.csv",
                          [](std::ostream&) {}),
               std::runtime_error);
}

TEST(CsvTest, ExportErrorNamesVariableAndPath) {
  bool wrote = false;
  std::string what;
  try {
    export_csv("/nonexistent_dir_softres", "fig5a_goodput.csv",
               [&wrote](std::ostream&) { wrote = true; });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_FALSE(wrote);
  EXPECT_NE(what.find("SOFTRES_CSV_DIR"), std::string::npos) << what;
  EXPECT_NE(what.find("/nonexistent_dir_softres/fig5a_goodput.csv"),
            std::string::npos)
      << what;
}

}  // namespace
}  // namespace softres::metrics
