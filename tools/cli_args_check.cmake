# A command-line binary (dlsim_cli, a bench) must reject a malformed
# option value with exit status 2 and a message naming the option,
# never fall back to a default. Invoked by ctest as
#   cmake -DCLI=<binary> -DARGS=<args separated by |>
#         -DEXPECT=<regex for stderr> -P <this file>

string(REPLACE "|" ";" args "${ARGS}")
get_filename_component(tool "${CLI}" NAME)
execute_process(
    COMMAND "${CLI}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "${tool} ${args}: expected exit 2, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${tool} ${args}: stderr lacks '${EXPECT}':\n${err}")
endif()
