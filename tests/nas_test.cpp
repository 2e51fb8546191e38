// NAS mini-kernel tests: every kernel verifies its internal invariant on
// every backend, produces bit-identical checksums across backends, and runs
// on several node counts.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "nas/kernels.hpp"

namespace sp::nas {
namespace {

using mpi::Backend;
using mpi::Machine;
using sim::MachineConfig;

struct NasParam {
  std::string kernel;
  Backend backend;
};

std::string backend_label(Backend b) {
  return b == Backend::kNativePipes   ? "Native"
         : b == Backend::kLapiBase     ? "Base"
         : b == Backend::kLapiCounters ? "Counters"
                                       : "Enhanced";
}

// Without this, gtest prints the parameter as raw bytes, which include the
// heap address of `kernel`, so the listed test names would change from one
// build to the next.
void PrintTo(const NasParam& p, std::ostream* os) {
  *os << p.kernel << "/" << backend_label(p.backend);
}

KernelResult run_kernel(const std::string& name, Backend backend, int nodes, int scale) {
  MachineConfig cfg;
  Machine m(cfg, nodes, backend);
  KernelResult out;
  for (auto& [kname, fn] : all_kernels()) {
    if (kname != name) continue;
    m.run([&, f = fn](mpi::Mpi& mpi) {
      auto r = f(mpi, scale);
      if (mpi.world().rank() == 0) out = r;
    });
    return out;
  }
  ADD_FAILURE() << "unknown kernel " << name;
  return out;
}

class NasKernels : public ::testing::TestWithParam<NasParam> {};

TEST_P(NasKernels, VerifiesOnFourNodes) {
  const auto res = run_kernel(GetParam().kernel, GetParam().backend, 4, 1);
  EXPECT_TRUE(res.verified) << GetParam().kernel;
  EXPECT_NE(res.checksum, 0u);
}

std::vector<NasParam> all_params() {
  std::vector<NasParam> ps;
  for (auto& [name, fn] : all_kernels()) {
    (void)fn;
    for (Backend b : {Backend::kNativePipes, Backend::kLapiBase, Backend::kLapiCounters,
                      Backend::kLapiEnhanced}) {
      ps.push_back({name, b});
    }
  }
  return ps;
}

std::string nas_name(const ::testing::TestParamInfo<NasParam>& info) {
  return info.param.kernel + "_" + backend_label(info.param.backend);
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllBackends, NasKernels, ::testing::ValuesIn(all_params()),
                         nas_name);

TEST(NasCrossBackend, ChecksumsIdenticalAcrossBackends) {
  for (auto& [name, fn] : all_kernels()) {
    (void)fn;
    std::map<Backend, std::uint64_t> sums;
    for (Backend b : {Backend::kNativePipes, Backend::kLapiBase, Backend::kLapiCounters,
                      Backend::kLapiEnhanced}) {
      sums[b] = run_kernel(name, b, 4, 1).checksum;
    }
    for (auto& [b, c] : sums) {
      EXPECT_EQ(c, sums[Backend::kNativePipes])
          << name << ": backend changes the numerical result";
    }
  }
}

TEST(NasNodeCounts, KernelsRunOnOddAndLargerMachines) {
  for (int nodes : {1, 2, 3, 8}) {
    for (auto& [name, fn] : all_kernels()) {
      (void)fn;
      const auto res = run_kernel(name, Backend::kLapiEnhanced, nodes, 1);
      EXPECT_TRUE(res.verified) << name << " on " << nodes << " nodes";
    }
  }
}

TEST(NasTiming, FasterMpiNeverSlowsAKernelMuch) {
  // MPI-LAPI Enhanced should be within a hair of native on every kernel
  // (and typically ahead); a large regression flags a protocol bug.
  for (auto& [name, fn] : all_kernels()) {
    (void)fn;
    MachineConfig cfg;
    Machine mn(cfg, 4, Backend::kNativePipes);
    mn.run([&, f = fn](mpi::Mpi& mpi) { (void)f(mpi, 1); });
    Machine ml(cfg, 4, Backend::kLapiEnhanced);
    ml.run([&, f = fn](mpi::Mpi& mpi) { (void)f(mpi, 1); });
    EXPECT_LT(sim::to_us(ml.elapsed()), sim::to_us(mn.elapsed()) * 1.06)
        << name << ": MPI-LAPI more than 6% slower than native";
  }
}

}  // namespace
}  // namespace sp::nas
