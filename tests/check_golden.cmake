# Driver for the figure golden tests: runs BENCH with DSASIM_CSV=1 and
# requires its stdout to match GOLDEN byte for byte. Fault injection
# and telemetry export are switched off for the run.
#
#   cmake -DBENCH=... -DGOLDEN=... -P check_golden.cmake

unset(ENV{DSASIM_FAULTS})
unset(ENV{DSASIM_STATS})
set(ENV{DSASIM_CSV} 1)
execute_process(
    COMMAND ${BENCH}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH}: exit ${status}\nstderr:\n${err}")
endif()

file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
    message(FATAL_ERROR
        "${BENCH} output differs from ${GOLDEN}\n"
        "--- expected\n${golden}--- got\n${out}")
endif()
