#include "svc/config.hpp"

namespace bgl {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kKrevat: return "krevat";
    case SchedulerKind::kBalancing: return "balancing";
    case SchedulerKind::kTieBreak: return "tie-break";
  }
  return "?";
}

PaperRole paper_role_for(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kKrevat: return PaperRole::kNull;
    case SchedulerKind::kBalancing: return PaperRole::kBalancing;
    case SchedulerKind::kTieBreak: return PaperRole::kTieBreak;
  }
  return PaperRole::kNull;
}

const char* to_string(QueueOrder order) {
  switch (order) {
    case QueueOrder::kFcfs: return "fcfs";
    case QueueOrder::kShortestJobFirst: return "sjf";
    case QueueOrder::kSmallestJobFirst: return "smallest";
  }
  return "?";
}

}  // namespace bgl
