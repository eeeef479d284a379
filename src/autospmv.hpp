// Umbrella header: the full public API of the autospmv library.
//
// autospmv reproduces "Auto-Tuning Strategies for Parallelizing Sparse
// Matrix-Vector (SpMV) Multiplication on Multi- and Many-Core Processors"
// (Hou, Feng, Che — IPDPSW 2017). See README.md for a tour and DESIGN.md
// for the architecture.
//
// The primary entry point is the spmv::core::Tuner builder (core/tuner.hpp):
//
//   spmv::core::HeuristicPredictor pred;
//   spmv::prof::RunProfile profile;                       // optional
//   auto spmv = spmv::core::Tuner(a)
//                   .predictor(pred)
//                   .profile(&profile)                    // telemetry sink
//                   .build();
//   spmv.run(x, y);
//   spmv::prof::write_profile_file("run.json", profile);  // JSON artifact
//
// The Tuner is the only way to construct an AutoSpmv (the former direct
// constructors are gone). Telemetry (spmv::prof) is opt-in: pass a
// RunProfile* for plan/run timings and enable spmv::prof::set_enabled(true)
// for engine counters. For concurrent serving with a plan cache and
// multi-vector batching, see spmv::serve::SpmvService (serve/service.hpp).
//
// Execution goes through spmv::exec (exec/backend.hpp): a Backend owns
// kernel dispatch, with ClsimBackend (the simulated work-group engine) and
// NativeBackend (OpenMP/SIMD loops on the host) as the two implementations.
// The backend is a *plan* property — select it with Tuner::backend(...),
// persist it through plan_io/PlanStore, or let the adapt layer tune it
// online.
#pragma once

#include "adapt/bandit.hpp"            // online bandit plan refinement
#include "adapt/plan_store.hpp"        // persistent tuned-plan store
#include "baseline/csr_adaptive.hpp"    // CSR-Adaptive baseline
#include "baseline/merge_spmv.hpp"      // merge-based SpMV extension
#include "binning/binning.hpp"          // Algorithm-2 virtual-row binning
#include "binning/schemes.hpp"          // fine/hybrid/single-bin schemes
#include "clsim/device.hpp"             // simulated device description
#include "clsim/engine.hpp"             // work-group execution engine
#include "core/auto_spmv.hpp"           // the auto-tuned SpMV runtime
#include "core/candidates.hpp"          // U / kernel candidate pools
#include "core/exhaustive.hpp"          // oracle tuner
#include "core/hetero.hpp"              // heterogeneous bin scheduling
#include "core/model_io.hpp"            // model persistence
#include "core/plan.hpp"                // parallelization plans
#include "core/plan_io.hpp"             // plan JSON (de)serialization
#include "core/predictor.hpp"           // model & heuristic predictors
#include "core/trainer.hpp"             // offline training pipeline
#include "core/tuner.hpp"               // the Tuner builder facade
#include "exec/backend.hpp"             // execution-backend abstraction
#include "exec/clsim_backend.hpp"       // clsim-engine backend
#include "exec/native_backend.hpp"      // native OpenMP/SIMD backend
#include "gen/corpus.hpp"               // UF-like training corpus
#include "iter/dense_block.hpp"         // column-major dense vector blocks
#include "iter/session.hpp"             // solver-loop serving sessions
#include "gen/generators.hpp"           // synthetic matrix generators
#include "gen/representative.hpp"       // the 16 Table-II matrices
#include "kernels/reference.hpp"        // Algorithm-1 reference kernels
#include "kernels/registry.hpp"         // the nine-kernel pool
#include "ml/boosting.hpp"              // C5.0-style boosting trials
#include "ml/dataset.hpp"               // ML dataset container
#include "ml/decision_tree.hpp"         // C4.5/C5.0-style tree learner
#include "ml/features.hpp"              // Table-I feature extraction
#include "ml/ruleset.hpp"               // if-then rule sets
#include "obs/sink.hpp"                 // streaming telemetry sink
#include "prof/counters.hpp"            // telemetry flag & engine counters
#include "prof/histogram.hpp"           // log-bucketed latency histograms
#include "prof/json.hpp"                // minimal JSON value type
#include "prof/profile.hpp"             // RunProfile telemetry aggregate
#include "prof/trajectory.hpp"          // perf-trajectory history & gate
#include "serve/fingerprint.hpp"        // structural matrix fingerprints
#include "serve/plan_cache.hpp"         // LRU cache of built runtimes
#include "serve/service.hpp"            // concurrent serving layer
#include "shard/fair_queue.hpp"         // tenant-weighted fair admission
#include "shard/partition.hpp"          // nnz-balanced row partitioning
#include "shard/sharded_service.hpp"    // row-sharded serving layer
#include "sparse/convert.hpp"           // COO<->CSR, transpose
#include "sparse/coo.hpp"               // COO container
#include "sparse/csr.hpp"               // CSR container
#include "sparse/ell.hpp"               // ELLPACK (format-overhead study)
#include "sparse/matrix_stats.hpp"      // row-length statistics
#include "sparse/mm_io.hpp"             // Matrix Market I/O
#include "sparse/reorder.hpp"           // row permutation utilities
#include "trace/trace.hpp"              // request-scoped tracing
#include "util/cli.hpp"                 // flag parsing for tools
#include "util/log.hpp"                 // leveled logging
#include "util/rng.hpp"                 // deterministic RNG
#include "util/stats.hpp"               // statistics helpers
#include "util/timer.hpp"               // timing / measurement
