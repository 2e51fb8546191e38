// Collective dispatch grid: which algorithm a barrier, bcast or allreduce
// call runs, pinned end to end.
//
// Each row is one (primitive, pin, backend, in-network auto mask, datatype).
// A row runs the call at communicator sizes 1, 2 and 5 and, for bcast and
// allreduce, at 0, 2040, 2048, 2056 and 64 KiB, which straddle both 2 KiB
// offload caps (rdma_nic_coll_max_bytes and in_network_coll_max_bytes). Every
// cell folds the machine's schedule digest and every rank's result bytes into
// the row's golden value, so a call that runs a different algorithm, or
// charges a different cost, changes the golden of its row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "mpi/coll.hpp"
#include "mpi/machine.hpp"

namespace sp::mpi {
namespace {

using sim::MachineConfig;

struct Row {
  std::string prim;
  std::string pin;
  Backend backend;
  unsigned mask;  ///< in_network_topology_mask: 0 or the SP multistage bit.
  Datatype dtype;
};

const char* backend_tag(Backend b) {
  switch (b) {
    case Backend::kNativePipes: return "native";
    case Backend::kRdma: return "rdma";
    default: return "enhanced";
  }
}

std::string row_name(const Row& r) {
  std::string s = r.prim + "_" + r.pin + "_" + backend_tag(r.backend) + "_mask" +
                  std::to_string(r.mask);
  if (r.prim == "allreduce") s += r.dtype == Datatype::kLong ? "_long" : "_double";
  return s;
}

std::vector<Row> grid_rows() {
  const std::map<std::string, std::vector<std::string>> pins = {
      {"barrier", {"auto", "dissemination", "nic", "in_network"}},
      {"bcast", {"auto", "binomial", "pipelined", "scatter_allgather", "nic", "in_network"}},
      {"allreduce",
       {"auto", "reduce_bcast", "recursive_doubling", "rabenseifner", "nic", "in_network"}},
  };
  const unsigned sp_bit = 1u << static_cast<int>(sim::TopologyKind::kSpMultistage);
  std::vector<Row> rows;
  for (const auto& [prim, names] : pins) {
    for (const auto& pin : names) {
      for (Backend b : {Backend::kNativePipes, Backend::kLapiEnhanced, Backend::kRdma}) {
        for (unsigned mask : {0u, sp_bit}) {
          if (prim == "allreduce") {
            for (Datatype d : {Datatype::kLong, Datatype::kDouble}) {
              rows.push_back({prim, pin, b, mask, d});
            }
          } else {
            rows.push_back({prim, pin, b, mask, Datatype::kByte});
          }
        }
      }
    }
  }
  return rows;
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Run one cell and fold its schedule digest and every rank's output into h.
std::uint64_t run_cell(const Row& r, int n, std::size_t bytes, std::uint64_t h) {
  MachineConfig cfg;
  cfg.in_network_topology_mask = r.mask;
  std::string err;
  EXPECT_TRUE(coll::apply_algo_spec(cfg, r.prim + "=" + r.pin, &err)) << err;
  Machine m(cfg, n, r.backend);
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(n));
  m.run([&](Mpi& mpi) {
    Comm& w = mpi.world();
    const int me = w.rank();
    auto& mine = out[static_cast<std::size_t>(me)];
    if (r.prim == "barrier") {
      mpi.barrier(w);
    } else if (r.prim == "bcast") {
      const int root = w.size() - 1;
      mine.assign(bytes, std::byte{0xEE});
      if (me == root) {
        for (std::size_t i = 0; i < bytes; ++i) mine[i] = static_cast<std::byte>(i * 7 + 3);
      }
      mpi.bcast(mine.data(), bytes, Datatype::kByte, root, w);
    } else {
      const std::size_t esz = datatype_size(r.dtype);
      const std::size_t count = bytes / esz;
      std::vector<std::byte> in(count * esz);
      for (std::size_t i = 0; i < count; ++i) {
        if (r.dtype == Datatype::kLong) {
          const long v = (me + 1) * 1000L + static_cast<long>(i);
          std::memcpy(in.data() + i * esz, &v, esz);
        } else {
          const double v = (me + 1) * 0.1 + static_cast<double>(i) * 1e-3;
          std::memcpy(in.data() + i * esz, &v, esz);
        }
      }
      mine.assign(count * esz, std::byte{0});
      mpi.allreduce(in.data(), mine.data(), count, r.dtype, Op::kSum, w);
    }
  });
  const std::uint64_t digest = m.schedule_digest();
  h = fnv(h, &digest, sizeof(digest));
  for (const auto& o : out) h = fnv(h, o.data(), o.size());
  return h;
}

// A row moves only when a call in it runs a different algorithm or charges a
// different cost; re-capture a row only for an intended dispatch change.
const std::map<std::string, std::uint64_t>& goldens() {
  static const std::map<std::string, std::uint64_t> g = {
      {"allreduce_auto_native_mask0_long", 0x39077a7146d692eULL},
      {"allreduce_auto_native_mask0_double", 0x3b8ebfb2daf52970ULL},
      {"allreduce_auto_native_mask1_long", 0x97720114b2efe459ULL},
      {"allreduce_auto_native_mask1_double", 0x3b8ebfb2daf52970ULL},
      {"allreduce_auto_enhanced_mask0_long", 0x52fea2c7e11c0961ULL},
      {"allreduce_auto_enhanced_mask0_double", 0xd72b5b84120c2cfbULL},
      {"allreduce_auto_enhanced_mask1_long", 0x7d19bb04ace80176ULL},
      {"allreduce_auto_enhanced_mask1_double", 0xd72b5b84120c2cfbULL},
      {"allreduce_auto_rdma_mask0_long", 0xaa7e47dfb517638ULL},
      {"allreduce_auto_rdma_mask0_double", 0xdc4b564f9e379271ULL},
      {"allreduce_auto_rdma_mask1_long", 0x87c031e50927e54aULL},
      {"allreduce_auto_rdma_mask1_double", 0xdc4b564f9e379271ULL},
      {"allreduce_reduce_bcast_native_mask0_long", 0xcf98f187c0a43d15ULL},
      {"allreduce_reduce_bcast_native_mask0_double", 0xb7edefa17c365bfULL},
      {"allreduce_reduce_bcast_native_mask1_long", 0xcf98f187c0a43d15ULL},
      {"allreduce_reduce_bcast_native_mask1_double", 0xb7edefa17c365bfULL},
      {"allreduce_reduce_bcast_enhanced_mask0_long", 0x5929ee60280e9afcULL},
      {"allreduce_reduce_bcast_enhanced_mask0_double", 0x991b38b648c0caaULL},
      {"allreduce_reduce_bcast_enhanced_mask1_long", 0x5929ee60280e9afcULL},
      {"allreduce_reduce_bcast_enhanced_mask1_double", 0x991b38b648c0caaULL},
      {"allreduce_reduce_bcast_rdma_mask0_long", 0xc9119c6815deda7aULL},
      {"allreduce_reduce_bcast_rdma_mask0_double", 0x4bc8165940f96ec0ULL},
      {"allreduce_reduce_bcast_rdma_mask1_long", 0xc9119c6815deda7aULL},
      {"allreduce_reduce_bcast_rdma_mask1_double", 0x4bc8165940f96ec0ULL},
      {"allreduce_recursive_doubling_native_mask0_long", 0x5380124bfcc78ebdULL},
      {"allreduce_recursive_doubling_native_mask0_double", 0xcb7e562e070e67bbULL},
      {"allreduce_recursive_doubling_native_mask1_long", 0x5380124bfcc78ebdULL},
      {"allreduce_recursive_doubling_native_mask1_double", 0xcb7e562e070e67bbULL},
      {"allreduce_recursive_doubling_enhanced_mask0_long", 0x2a8515d6abedae95ULL},
      {"allreduce_recursive_doubling_enhanced_mask0_double", 0xce960896f2620c17ULL},
      {"allreduce_recursive_doubling_enhanced_mask1_long", 0x2a8515d6abedae95ULL},
      {"allreduce_recursive_doubling_enhanced_mask1_double", 0xce960896f2620c17ULL},
      {"allreduce_recursive_doubling_rdma_mask0_long", 0x3b8a1332e44326beULL},
      {"allreduce_recursive_doubling_rdma_mask0_double", 0xfacb7862af920610ULL},
      {"allreduce_recursive_doubling_rdma_mask1_long", 0x3b8a1332e44326beULL},
      {"allreduce_recursive_doubling_rdma_mask1_double", 0xfacb7862af920610ULL},
      {"allreduce_rabenseifner_native_mask0_long", 0x952adb381a8fede1ULL},
      {"allreduce_rabenseifner_native_mask0_double", 0x1576bbb663d6498bULL},
      {"allreduce_rabenseifner_native_mask1_long", 0x952adb381a8fede1ULL},
      {"allreduce_rabenseifner_native_mask1_double", 0x1576bbb663d6498bULL},
      {"allreduce_rabenseifner_enhanced_mask0_long", 0xa650e987ae20110dULL},
      {"allreduce_rabenseifner_enhanced_mask0_double", 0x455b24611633cd2bULL},
      {"allreduce_rabenseifner_enhanced_mask1_long", 0xa650e987ae20110dULL},
      {"allreduce_rabenseifner_enhanced_mask1_double", 0x455b24611633cd2bULL},
      {"allreduce_rabenseifner_rdma_mask0_long", 0xfed4801a698db248ULL},
      {"allreduce_rabenseifner_rdma_mask0_double", 0x5d231fbd6039b1d6ULL},
      {"allreduce_rabenseifner_rdma_mask1_long", 0xfed4801a698db248ULL},
      {"allreduce_rabenseifner_rdma_mask1_double", 0x5d231fbd6039b1d6ULL},
      {"allreduce_nic_native_mask0_long", 0x39077a7146d692eULL},
      {"allreduce_nic_native_mask0_double", 0x3b8ebfb2daf52970ULL},
      {"allreduce_nic_native_mask1_long", 0x39077a7146d692eULL},
      {"allreduce_nic_native_mask1_double", 0x3b8ebfb2daf52970ULL},
      {"allreduce_nic_enhanced_mask0_long", 0x52fea2c7e11c0961ULL},
      {"allreduce_nic_enhanced_mask0_double", 0xd72b5b84120c2cfbULL},
      {"allreduce_nic_enhanced_mask1_long", 0x52fea2c7e11c0961ULL},
      {"allreduce_nic_enhanced_mask1_double", 0xd72b5b84120c2cfbULL},
      {"allreduce_nic_rdma_mask0_long", 0xaa7e47dfb517638ULL},
      {"allreduce_nic_rdma_mask0_double", 0xab9b19351ca934f1ULL},
      {"allreduce_nic_rdma_mask1_long", 0xaa7e47dfb517638ULL},
      {"allreduce_nic_rdma_mask1_double", 0xab9b19351ca934f1ULL},
      {"allreduce_in_network_native_mask0_long", 0x97720114b2efe459ULL},
      {"allreduce_in_network_native_mask0_double", 0x34c1d557fa7b7483ULL},
      {"allreduce_in_network_native_mask1_long", 0x97720114b2efe459ULL},
      {"allreduce_in_network_native_mask1_double", 0x34c1d557fa7b7483ULL},
      {"allreduce_in_network_enhanced_mask0_long", 0x7d19bb04ace80176ULL},
      {"allreduce_in_network_enhanced_mask0_double", 0xdb17869574f543d8ULL},
      {"allreduce_in_network_enhanced_mask1_long", 0x7d19bb04ace80176ULL},
      {"allreduce_in_network_enhanced_mask1_double", 0xdb17869574f543d8ULL},
      {"allreduce_in_network_rdma_mask0_long", 0x87c031e50927e54aULL},
      {"allreduce_in_network_rdma_mask0_double", 0x84e8541abc9c3818ULL},
      {"allreduce_in_network_rdma_mask1_long", 0x87c031e50927e54aULL},
      {"allreduce_in_network_rdma_mask1_double", 0x84e8541abc9c3818ULL},
      {"barrier_auto_native_mask0", 0x8ef0b6a1aee51796ULL},
      {"barrier_auto_native_mask1", 0x94e4b6cb32b67d38ULL},
      {"barrier_auto_enhanced_mask0", 0xfc80db10f51eee0aULL},
      {"barrier_auto_enhanced_mask1", 0x94e4b6cb32b67d38ULL},
      {"barrier_auto_rdma_mask0", 0x2ca534630a856243ULL},
      {"barrier_auto_rdma_mask1", 0x94e4b6cb32b67d38ULL},
      {"barrier_dissemination_native_mask0", 0x8ef0b6a1aee51796ULL},
      {"barrier_dissemination_native_mask1", 0x8ef0b6a1aee51796ULL},
      {"barrier_dissemination_enhanced_mask0", 0xfc80db10f51eee0aULL},
      {"barrier_dissemination_enhanced_mask1", 0xfc80db10f51eee0aULL},
      {"barrier_dissemination_rdma_mask0", 0x9b2dcd670bc596e5ULL},
      {"barrier_dissemination_rdma_mask1", 0x9b2dcd670bc596e5ULL},
      {"barrier_nic_native_mask0", 0x8ef0b6a1aee51796ULL},
      {"barrier_nic_native_mask1", 0x8ef0b6a1aee51796ULL},
      {"barrier_nic_enhanced_mask0", 0xfc80db10f51eee0aULL},
      {"barrier_nic_enhanced_mask1", 0xfc80db10f51eee0aULL},
      {"barrier_nic_rdma_mask0", 0x2ca534630a856243ULL},
      {"barrier_nic_rdma_mask1", 0x2ca534630a856243ULL},
      {"barrier_in_network_native_mask0", 0x94e4b6cb32b67d38ULL},
      {"barrier_in_network_native_mask1", 0x94e4b6cb32b67d38ULL},
      {"barrier_in_network_enhanced_mask0", 0x94e4b6cb32b67d38ULL},
      {"barrier_in_network_enhanced_mask1", 0x94e4b6cb32b67d38ULL},
      {"barrier_in_network_rdma_mask0", 0x94e4b6cb32b67d38ULL},
      {"barrier_in_network_rdma_mask1", 0x94e4b6cb32b67d38ULL},
      {"bcast_auto_native_mask0", 0xe146c8a4c83d59f1ULL},
      {"bcast_auto_native_mask1", 0x1155d463f89b70b3ULL},
      {"bcast_auto_enhanced_mask0", 0xfae500dbb57b239eULL},
      {"bcast_auto_enhanced_mask1", 0xd871ef4c01a13208ULL},
      {"bcast_auto_rdma_mask0", 0x6dd200e71c10afcfULL},
      {"bcast_auto_rdma_mask1", 0x9af1060765d2b2abULL},
      {"bcast_binomial_native_mask0", 0x64301a8eb0d56ba3ULL},
      {"bcast_binomial_native_mask1", 0x64301a8eb0d56ba3ULL},
      {"bcast_binomial_enhanced_mask0", 0x21834d1a31dfe66fULL},
      {"bcast_binomial_enhanced_mask1", 0x21834d1a31dfe66fULL},
      {"bcast_binomial_rdma_mask0", 0x584a015fa03e7504ULL},
      {"bcast_binomial_rdma_mask1", 0x584a015fa03e7504ULL},
      {"bcast_pipelined_native_mask0", 0xbfc71f451340d959ULL},
      {"bcast_pipelined_native_mask1", 0xbfc71f451340d959ULL},
      {"bcast_pipelined_enhanced_mask0", 0x5c3a8a352bbe6e88ULL},
      {"bcast_pipelined_enhanced_mask1", 0x5c3a8a352bbe6e88ULL},
      {"bcast_pipelined_rdma_mask0", 0x77875c788b10c9a8ULL},
      {"bcast_pipelined_rdma_mask1", 0x77875c788b10c9a8ULL},
      {"bcast_scatter_allgather_native_mask0", 0x70e8c1e7d51e7a48ULL},
      {"bcast_scatter_allgather_native_mask1", 0x70e8c1e7d51e7a48ULL},
      {"bcast_scatter_allgather_enhanced_mask0", 0xa296b54762dc37ULL},
      {"bcast_scatter_allgather_enhanced_mask1", 0xa296b54762dc37ULL},
      {"bcast_scatter_allgather_rdma_mask0", 0x406d0aef61a596bfULL},
      {"bcast_scatter_allgather_rdma_mask1", 0x406d0aef61a596bfULL},
      {"bcast_nic_native_mask0", 0xe146c8a4c83d59f1ULL},
      {"bcast_nic_native_mask1", 0xe146c8a4c83d59f1ULL},
      {"bcast_nic_enhanced_mask0", 0xfae500dbb57b239eULL},
      {"bcast_nic_enhanced_mask1", 0xfae500dbb57b239eULL},
      {"bcast_nic_rdma_mask0", 0x6dd200e71c10afcfULL},
      {"bcast_nic_rdma_mask1", 0x6dd200e71c10afcfULL},
      {"bcast_in_network_native_mask0", 0x1155d463f89b70b3ULL},
      {"bcast_in_network_native_mask1", 0x1155d463f89b70b3ULL},
      {"bcast_in_network_enhanced_mask0", 0xd871ef4c01a13208ULL},
      {"bcast_in_network_enhanced_mask1", 0xd871ef4c01a13208ULL},
      {"bcast_in_network_rdma_mask0", 0x9af1060765d2b2abULL},
      {"bcast_in_network_rdma_mask1", 0x9af1060765d2b2abULL},
  };
  return g;
}

class DispatchGrid : public ::testing::TestWithParam<Row> {};

TEST_P(DispatchGrid, RowPinned) {
  const Row& r = GetParam();
  std::vector<std::size_t> sizes = {0, 2040, 2048, 2056, 64 * 1024};
  if (r.prim == "barrier") sizes = {0};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int n : {1, 2, 5}) {
    for (std::size_t bytes : sizes) h = run_cell(r, n, bytes, h);
  }
  const std::string name = row_name(r);
  const auto it = goldens().find(name);
  const std::uint64_t want = it == goldens().end() ? 0 : it->second;
  EXPECT_EQ(h, want) << "golden row: {\"" << name << "\", 0x" << std::hex << h << "ULL},";
}

INSTANTIATE_TEST_SUITE_P(Rows, DispatchGrid, ::testing::ValuesIn(grid_rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return row_name(info.param);
                         });

// --- coll::plan itself: the declines the grid exercises end to end ----------

TEST(Plan, OffloadPinOverItsCapTakesTheHostAutoTable) {
  MachineConfig cfg;
  ASSERT_TRUE(coll::apply_algo_spec(cfg, "bcast=in_network,allreduce=nic", nullptr));
  const coll::Caps both{true, true};
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBcast, 2048, 4, Datatype::kByte, both),
            static_cast<int>(coll::BcastAlgo::kInNetwork));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBcast, 2049, 4, Datatype::kByte, both),
            static_cast<int>(coll::BcastAlgo::kBinomial));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kAllreduce, 2048, 4, Datatype::kDouble, both),
            static_cast<int>(coll::AllreduceAlgo::kNicOffload));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kAllreduce, 64 * 1024, 4, Datatype::kDouble, both),
            static_cast<int>(coll::AllreduceAlgo::kRabenseifner));
  // No engine, or a single rank: the host table, whatever the pin.
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBcast, 8, 4, Datatype::kByte, {}),
            static_cast<int>(coll::BcastAlgo::kBinomial));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kAllreduce, 8, 1, Datatype::kLong, both),
            static_cast<int>(coll::AllreduceAlgo::kRecursiveDoubling));
}

TEST(Plan, AutoPrefersSwitchThenAdapterAndOffloadsOnlyExactAllreduce) {
  MachineConfig cfg;
  const coll::Caps both{true, true};
  // Mask off: the adapter; mask on: the switch.
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBarrier, 0, 4, Datatype::kByte, both),
            static_cast<int>(coll::BarrierAlgo::kNicOffload));
  cfg.in_network_topology_mask = 1u << static_cast<int>(cfg.topology);
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBarrier, 0, 4, Datatype::kByte, both),
            static_cast<int>(coll::BarrierAlgo::kInNetwork));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kAllreduce, 64, 4, Datatype::kLong, both),
            static_cast<int>(coll::AllreduceAlgo::kInNetwork));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kAllreduce, 64, 4, Datatype::kDouble, both),
            static_cast<int>(coll::AllreduceAlgo::kRecursiveDoubling));
  // Over the switch cap but the adapter's cap is raised: the adapter.
  cfg.rdma_nic_coll_max_bytes = 8192;
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBcast, 4096, 4, Datatype::kByte, both),
            static_cast<int>(coll::BcastAlgo::kNicOffload));
  EXPECT_EQ(coll::plan(cfg, coll::Primitive::kBarrier, 0, 4, Datatype::kByte, {}),
            static_cast<int>(coll::BarrierAlgo::kDissemination));
}

}  // namespace
}  // namespace sp::mpi
