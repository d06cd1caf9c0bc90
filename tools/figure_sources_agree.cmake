# One source of truth per figure, enforced end to end: at --quick,
# every run that fig5_abtb_sweep and table4_microarch_counters write
# with --json-out must carry the same `metrics` object as the
# bench_to_json --quick run of the same name. Invoked by ctest as
#   cmake -DFIG5=<bench> -DTABLE4=<bench> -DAGGREGATOR=<bench_to_json>
#         -DOUT=<dir> -P <this file>

file(MAKE_DIRECTORY "${OUT}")

function(run_tool)
    execute_process(COMMAND ${ARGN}
        OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${ARGN} exited with ${rc}\n${err}")
    endif()
endfunction()

run_tool("${FIG5}" --quick --json-out "${OUT}/fig5.json")
run_tool("${TABLE4}" --quick --json-out "${OUT}/table4.json")
run_tool("${AGGREGATOR}" --quick --out-dir "${OUT}")

# Compare every run of the bench document `bench_json` against the
# aggregator document `agg_json`.
function(check_runs bench_json agg_json)
    file(READ "${bench_json}" bench)
    file(READ "${agg_json}" agg)
    string(JSON agg_count LENGTH "${agg}" runs)
    math(EXPR agg_last "${agg_count} - 1")
    foreach(j RANGE ${agg_last})
        string(JSON name GET "${agg}" runs ${j} name)
        string(JSON agg_metrics_${name} GET "${agg}" runs ${j} metrics)
    endforeach()

    string(JSON count LENGTH "${bench}" runs)
    if(count EQUAL 0)
        message(FATAL_ERROR "${bench_json} has no runs")
    endif()
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
        string(JSON name GET "${bench}" runs ${i} name)
        if(NOT DEFINED agg_metrics_${name})
            message(FATAL_ERROR
                "${agg_json} has no run '${name}' (from ${bench_json})")
        endif()
        string(JSON metrics GET "${bench}" runs ${i} metrics)
        string(JSON same EQUAL "${metrics}" "${agg_metrics_${name}}")
        if(NOT same)
            message(FATAL_ERROR
                "run '${name}': ${bench_json} and ${agg_json} disagree "
                "— the figure has two sources")
        endif()
    endforeach()
    message(STATUS "${bench_json}: ${count} runs agree")
endfunction()

check_runs("${OUT}/fig5.json" "${OUT}/BENCH_fig5.json")
check_runs("${OUT}/table4.json" "${OUT}/BENCH_table4.json")
