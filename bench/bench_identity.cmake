# Determinism contract of a bench binary, enforced end to end: --quick
# runs at different host parallelism (--jobs) must produce
# byte-identical stdout and byte-identical --json-out documents.
# Invoked by ctest as
#   cmake -DBENCH=<binary> -DOUT=<dir> -DJOBS=<counts separated by |>
#         -P <this file>
# The first --jobs count is the reference the others are compared to.

file(MAKE_DIRECTORY "${OUT}")
string(REPLACE "|" ";" jobs "${JOBS}")
get_filename_component(tool "${BENCH}" NAME)

foreach(n IN LISTS jobs)
    execute_process(
        COMMAND "${BENCH}" --quick --jobs ${n}
                --json-out "${OUT}/jobs${n}.json"
        OUTPUT_FILE "${OUT}/jobs${n}.txt"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${tool} --quick --jobs ${n} exited with ${rc}\n${err}")
    endif()
endforeach()

list(POP_FRONT jobs ref)
foreach(ext txt json)
    file(READ "${OUT}/jobs${ref}.${ext}" reference)
    foreach(n IN LISTS jobs)
        file(READ "${OUT}/jobs${n}.${ext}" candidate)
        if(NOT candidate STREQUAL reference)
            message(FATAL_ERROR
                "${tool} ${ext} output differs between --jobs ${ref} "
                "and --jobs ${n} — the determinism contract is broken")
        endif()
    endforeach()
endforeach()
