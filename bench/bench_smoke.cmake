# bench_smoke: run one figure binary through the parallel experiment
# engine (quick mode, 2 threads) and validate the emitted
# "ppm-bench-timing-v1" stage-timing JSON, so the engine's profile
# sharing + fused path is exercised in tier-1. Invoked by ctest as
#   cmake -DBENCH_BIN=<fig5_overall> -DOUT=<json path> -P bench_smoke.cmake

if(NOT BENCH_BIN OR NOT OUT)
    message(FATAL_ERROR "bench_smoke: BENCH_BIN and OUT must be set")
endif()

file(REMOVE "${OUT}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PPM_QUICK=1 PPM_THREADS=2
            PPM_FUSED=1
            "PPM_BENCH_JSON=${OUT}" "PPM_BENCH_LABEL=bench_smoke"
            ${BENCH_BIN}
    RESULT_VARIABLE rv
    OUTPUT_QUIET)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${BENCH_BIN} exited with ${rv}")
endif()

if(NOT EXISTS "${OUT}")
    message(FATAL_ERROR "bench_smoke: PPM_BENCH_JSON file not written")
endif()
file(READ "${OUT}" doc)

# string(JSON) fatal-errors on malformed JSON or missing keys, so each
# GET below is itself a schema assertion.
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "ppm-bench-timing-v1")
    message(FATAL_ERROR "bench_smoke: bad schema '${schema}'")
endif()

string(JSON label GET "${doc}" label)
if(NOT label STREQUAL "bench_smoke")
    message(FATAL_ERROR "bench_smoke: bad label '${label}'")
endif()

string(JSON threads GET "${doc}" threads)
if(NOT threads EQUAL 2)
    message(FATAL_ERROR "bench_smoke: PPM_THREADS=2 not honored "
                        "(threads=${threads})")
endif()

string(JSON quick GET "${doc}" quick)
if(NOT (quick STREQUAL "ON" OR quick STREQUAL "true"))
    message(FATAL_ERROR "bench_smoke: quick flag not set (${quick})")
endif()

string(JSON wall GET "${doc}" wall_s)
string(JSON nruns LENGTH "${doc}" runs)
string(JSON truns GET "${doc}" totals runs)
if(NOT nruns EQUAL truns)
    message(FATAL_ERROR
            "bench_smoke: runs length ${nruns} != totals.runs ${truns}")
endif()
# fig5 sweeps 12 workloads x 3 predictors.
if(NOT nruns EQUAL 36)
    message(FATAL_ERROR "bench_smoke: expected 36 runs, got ${nruns}")
endif()

# Run caching: 3 predictor configs per workload share one pass-1 profile.
string(JSON sims GET "${doc}" totals simulations)
if(NOT sims EQUAL 12)
    message(FATAL_ERROR
            "bench_smoke: expected 12 simulations, got ${sims} "
            "(capture sharing broken)")
endif()

# shared_stages: per-group costs reported apart from per-lane analyze
# time (no double counting across lanes).
string(JSON fgroups GET "${doc}" shared_stages fused_groups)
string(JSON flanes GET "${doc}" shared_stages fused_lanes)
string(JSON dispatch GET "${doc}" shared_stages dispatch_s)
if(NOT fgroups EQUAL 12)
    message(FATAL_ERROR
            "bench_smoke: expected 12 fused groups, got ${fgroups}")
endif()
if(NOT flanes EQUAL 36)
    message(FATAL_ERROR
            "bench_smoke: expected 36 fused lanes, got ${flanes}")
endif()
if(dispatch LESS 0)
    message(FATAL_ERROR "bench_smoke: negative dispatch_s")
endif()
string(JSON row0_fused GET "${doc}" runs 0 fused)
if(NOT (row0_fused STREQUAL "ON" OR row0_fused STREQUAL "true"))
    message(FATAL_ERROR "bench_smoke: runs[0] not marked fused")
endif()

string(JSON instrs GET "${doc}" totals dyn_instrs)
if(instrs LESS 1)
    message(FATAL_ERROR "bench_smoke: totals.dyn_instrs empty")
endif()

# Spot-check one run row carries the per-cell fields.
string(JSON row0_workload GET "${doc}" runs 0 workload)
string(JSON row0_predictor GET "${doc}" runs 0 predictor)
string(JSON row0_instrs GET "${doc}" runs 0 dyn_instrs)
string(JSON row0_sim GET "${doc}" runs 0 simulate_s)
string(JSON row0_analyze GET "${doc}" runs 0 analyze_s)
if(row0_instrs LESS 1)
    message(FATAL_ERROR "bench_smoke: runs[0].dyn_instrs empty")
endif()

message(STATUS
        "bench_smoke ok: ${nruns} runs, ${sims} simulations, "
        "${fgroups} fused groups, wall ${wall}s "
        "(first cell: ${row0_workload}/${row0_predictor})")
