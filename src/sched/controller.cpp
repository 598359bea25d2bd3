#include "sched/controller.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "dram/dram_bank.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "sched/controller_impl.hpp"

namespace fgnvm::sched {

namespace detail {

bool paranoid_env() {
  const char* env = std::getenv("FGNVM_PARANOID");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

[[noreturn]] void throw_divergence(const std::string& what) {
  throw std::runtime_error(
      std::string("Controller cross-check: indexed ") + what +
      " diverged from its reference");
}

}  // namespace detail

SchedulerPolicy scheduler_policy_from_string(const std::string& name) {
  if (name == "fcfs") return SchedulerPolicy::kFcfs;
  if (name == "frfcfs") return SchedulerPolicy::kFrfcfs;
  if (name == "frfcfs_aug" || name == "augmented")
    return SchedulerPolicy::kFrfcfsAugmented;
  throw std::runtime_error("unknown scheduler policy: " + name);
}

const char* to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFcfs: return "fcfs";
    case SchedulerPolicy::kFrfcfs: return "frfcfs";
    case SchedulerPolicy::kFrfcfsAugmented: return "frfcfs_aug";
  }
  return "?";
}

PagePolicy page_policy_from_string(const std::string& name) {
  if (name == "open") return PagePolicy::kOpen;
  if (name == "closed") return PagePolicy::kClosed;
  throw std::runtime_error("unknown page policy: " + name);
}

const char* to_string(PagePolicy policy) {
  return policy == PagePolicy::kOpen ? "open" : "closed";
}

ControllerConfig ControllerConfig::from_config(const Config& cfg) {
  ControllerConfig c;
  c.policy = scheduler_policy_from_string(
      cfg.get_string("scheduler", to_string(c.policy)));
  c.page_policy = page_policy_from_string(
      cfg.get_string("page_policy", to_string(c.page_policy)));
  c.read_queue_cap = cfg.get_u64("read_queue", c.read_queue_cap);
  c.write_queue_cap = cfg.get_u64("write_queue", c.write_queue_cap);
  c.wq_high = cfg.get_u64("wq_high", c.wq_high);
  c.wq_low = cfg.get_u64("wq_low", c.wq_low);
  c.issue_width = cfg.get_u64("issue_width", c.issue_width);
  c.bus_lanes = cfg.get_u64("bus_lanes", c.bus_lanes);
  c.drain_idle_timeout = cfg.get_u64("drain_idle_timeout", c.drain_idle_timeout);
  c.bg_write_guard = cfg.get_u64("bg_write_guard", c.bg_write_guard);
  c.bg_write_min = cfg.get_u64("bg_write_min", c.bg_write_min);
  c.bg_write_inflight_max =
      cfg.get_u64("bg_write_inflight_max", c.bg_write_inflight_max);
  if (c.issue_width == 0 || c.bus_lanes == 0) {
    throw std::runtime_error("ControllerConfig: zero issue_width/bus_lanes");
  }
  return c;
}

// The two bank kinds. Everything else links against these through
// controller.hpp's extern template declarations.
template class ControllerT<nvm::FgNvmBank>;
template class ControllerT<dram::DramBank>;

}  // namespace fgnvm::sched
