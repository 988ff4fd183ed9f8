// Observability certification for the storage passes.
//
// Store elimination and storage reduction do not merely re-schedule work:
// they delete stores and whole arrays. The property to certify is that
// everything deleted was unobservable -- no program output and no later
// memory read ever needed the removed writebacks or the shrunk storage.
// Liveness is re-derived here independently, at element granularity, from
// the concrete event trace of the pre-pass program (the repo's
// analysis/liveness.cpp works at whole-array, whole-statement granularity
// and is exactly the code under suspicion).
//
// validate_store_elimination(pre, post) certifies, for every array whose
// writes disappeared:
//   - the array is not an observable output;
//   - in `pre`, no read of any element observes a write from a *different*
//     top-level statement (the store's value never escapes its loop, so
//     forwarding through a scalar can replace it);
//   - in `post`, the array is never written, and each element is read at
//     most as often as `pre` read its *initial* (pre-first-write) value --
//     every value-observing read must have been forwarded off memory.
//   - every output ends with the same symbolic value as in `pre`
//     (Instance::value): the rewrite computes each output by the same
//     expression over the inputs.
//
// validate_storage_reduction(pre, post) certifies, for every array whose
// references disappeared:
//   - the array is not an observable output;
//   - no element's initial contents are observed (a read preceding every
//     write of that element cannot be reproduced by fresh buffers);
//   - replacement storage is sufficient: the peak number of simultaneously
//     live values (produced, still to be read) of all reduced arrays fits
//     in the arrays and scalars the pass introduced. This is a lower-bound
//     argument in the spirit of the traffic bound: a pass that "shrinks" a
//     live array below its peak live set cannot be correct, whatever code
//     it generated;
//   - every output ends with the same symbolic value as in `pre`, so the
//     generated code (rotation and peel copies included) carries each
//     value to the reads that need it.
#pragma once

#include <cstdint>

#include "bwc/ir/program.h"
#include "bwc/verify/diagnostics.h"

namespace bwc::verify {

struct ObservabilityOptions {
  /// Event budget per traced program (see TranslationOptions::max_events).
  std::uint64_t max_events = 2'000'000;
};

Report validate_store_elimination(const ir::Program& pre,
                                  const ir::Program& post,
                                  const ObservabilityOptions& options = {});

Report validate_storage_reduction(const ir::Program& pre,
                                  const ir::Program& post,
                                  const ObservabilityOptions& options = {});

}  // namespace bwc::verify
