#include "sim/platform.hpp"

#include "common/error.hpp"
#include "sim/runtime.hpp"

namespace deepbat::sim {

PlatformRun run_platform(const workload::Trace& trace, Controller& controller,
                         const lambda::LambdaModel& model,
                         lambda::Config initial_config,
                         const PlatformOptions& options) {
  // Single-tenant, single-shard special case of the sharded runtime
  // (sim/runtime.hpp); no batch encoder, so the controller runs its plain
  // decide() path and no worker threads are spawned. Every sharded run is
  // bit-identical per tenant to this wrapper.
  Runtime runtime(nullptr, RuntimeOptions{.shards = 1});
  TenantSpec spec;
  spec.name = controller.name();
  spec.trace = &trace;
  spec.controller = &controller;
  spec.model = &model;
  spec.initial_config = initial_config;
  spec.options = options;
  runtime.add_tenant(std::move(spec));
  auto runs = runtime.run();
  return std::move(runs.front());
}

PlatformRun run_platform(const workload::Trace& trace, Controller& controller,
                         const lambda::Backend& backend,
                         lambda::Config initial_config,
                         const PlatformOptions& options) {
  Runtime runtime(nullptr, RuntimeOptions{.shards = 1});
  TenantSpec spec;
  spec.name = controller.name();
  spec.trace = &trace;
  spec.controller = &controller;
  spec.backend = &backend;
  spec.initial_config = initial_config;
  spec.options = options;
  runtime.add_tenant(std::move(spec));
  auto runs = runtime.run();
  return std::move(runs.front());
}

}  // namespace deepbat::sim
