# Runs training.txt with the instrumented tools (cmake -P, from the
# training tree's `profile` target):
#
#   cmake -DROWS=training.txt -DMOPSIM=<exe> -DMOPTRACE=<exe> -DWORK=<dir>
#         -P train.cmake
#
# Each row runs in WORK with its output discarded; the first row that
# does not exit 0 fails the build, naming the row and its stderr.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
file(STRINGS ${ROWS} rows ENCODING UTF-8 REGEX "^[^#]")
foreach(row IN LISTS rows)
    separate_arguments(argv UNIX_COMMAND "${row}")
    list(POP_FRONT argv tool)
    if(tool STREQUAL "mopsim")
        set(exe ${MOPSIM})
    elseif(tool STREQUAL "moptrace")
        set(exe ${MOPTRACE})
    else()
        message(FATAL_ERROR "training row '${row}': not a mopsim or moptrace "
                            "command")
    endif()
    execute_process(COMMAND ${exe} ${argv}
                    WORKING_DIRECTORY ${WORK}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "training row '${row}' exited ${rc}: ${err}")
    endif()
endforeach()
