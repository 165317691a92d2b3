//===- perfbench/src/SelfTest.h - The benchmark's own tests -----*- C++ -*-===//

#ifndef PERFBENCH_SELFTEST_H
#define PERFBENCH_SELFTEST_H

#include <string>

namespace perfbench {

/// Checks the benchmark's own code: the order statistics against values
/// Python's statistics module gives, golden parsing, name sanitizing,
/// and a smoke run of the escalator rows (untraced and traced) in which
/// a wrong expected LoC or machine-state count must count as a failed
/// operation. Returns the process exit code (0 when every check holds).
int runSelfTest(const std::string &GoldenDir);

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_H
