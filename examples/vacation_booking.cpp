// Vacation demo: a travel-booking database (flight/room/car tables +
// customers) under concurrent mixed traffic, exactly the workload the
// paper's fourth benchmark models. Shows the Manager API directly — compose
// several queries and reservations into one atomic action — and verifies
// database consistency afterwards.
//
//   ./build/examples/vacation_booking --cm=Adaptive-Improved-Dynamic --threads=8
#include <cstdio>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "vacation/client.hpp"

int main(int argc, char** argv) {
  using namespace wstm;

  Cli cli;
  cli.add_flag("cm", "contention manager", std::string("Online-Dynamic"));
  cli.add_flag("threads", "worker threads", static_cast<std::int64_t>(4));
  cli.add_flag("actions", "client actions per thread", static_cast<std::int64_t>(2000));
  cli.add_flag("relations", "rows per table", static_cast<std::int64_t>(64));
  if (!cli.parse(argc, argv)) return 1;

  const auto threads = static_cast<unsigned>(cli.get_int("threads"));
  const auto actions = static_cast<int>(cli.get_int("actions"));

  cm::Params params;
  params.threads = threads;
  stm::Runtime rt(cm::make_manager(cli.get_string("cm"), params));

  vacation::Manager manager;
  vacation::ClientConfig config = vacation::high_contention_config();
  config.relations = cli.get_int("relations");
  vacation::Client client(manager, config);

  {
    stm::ThreadCtx& tc = rt.attach_thread();
    client.populate(rt, tc);
    rt.detach_thread(tc);
  }
  std::printf("populated %ld rows per table, %ld customers\n", config.relations,
              config.relations);

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt.attach_thread();
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < actions; ++i) client.run_one(rt, tc, rng);
    });
  }
  for (auto& w : workers) w.join();

  // Book-keeping after the storm: how much inventory is in use?
  long used = 0, total = 0, customers = 0, bookings = 0;
  for (int t = 0; t < vacation::kNumReservationTypes; ++t) {
    for (const auto& [id, row] :
         manager.table(static_cast<vacation::ReservationType>(t)).quiescent_entries()) {
      used += row.num_used;
      total += row.num_total;
    }
  }
  for (const auto& [id, customer] : manager.customers().quiescent_entries()) {
    ++customers;
    bookings += static_cast<long>(customer.reservations.size());
  }
  const stm::ThreadMetrics m = rt.total_metrics();

  std::printf("inventory in use: %ld / %ld units; %ld customers hold %ld bookings\n", used,
              total, customers, bookings);
  std::printf("commits: %llu, aborts: %llu\n", static_cast<unsigned long long>(m.commits),
              static_cast<unsigned long long>(m.aborts));

  std::string why;
  const bool ok = manager.quiescent_consistent(&why);
  std::printf("database consistent: %s%s%s\n", ok ? "yes" : "NO", ok ? "" : " — ",
              why.c_str());
  return ok ? 0 : 1;
}
