# Driver for the sweep telemetry naming test: runs BENCH (a parallel
# figure sweep) twice with DSASIM_JOBS=4 and DSASIM_STATS pointing
# into two fresh directories under WORK_DIR, then requires the two
# runs to have written the same file names with the same bytes, so
# which file holds which sweep point does not depend on thread
# scheduling.
#
#   cmake -DBENCH=... -DWORK_DIR=... -P check_sweep_telemetry.cmake

file(REMOVE_RECURSE ${WORK_DIR})
unset(ENV{DSASIM_FAULTS})
set(ENV{DSASIM_JOBS} 4)
foreach(run a b)
    file(MAKE_DIRECTORY ${WORK_DIR}/${run})
    set(ENV{DSASIM_STATS} "${WORK_DIR}/${run}/x-")
    execute_process(
        COMMAND ${BENCH}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BENCH}: exit ${status}\nstderr:\n${err}")
    endif()
    file(GLOB files_${run} RELATIVE ${WORK_DIR}/${run}
         ${WORK_DIR}/${run}/*)
    list(SORT files_${run})
endforeach()

if(NOT files_a)
    message(FATAL_ERROR "${BENCH} exported no telemetry file")
endif()
if(NOT files_a STREQUAL files_b)
    message(FATAL_ERROR
        "the two runs wrote different file names:\n"
        "  ${files_a}\n  ${files_b}")
endif()
foreach(f ${files_a})
    file(SHA256 ${WORK_DIR}/a/${f} ha)
    file(SHA256 ${WORK_DIR}/b/${f} hb)
    if(NOT ha STREQUAL hb)
        message(FATAL_ERROR "${f} differs between the two runs")
    endif()
endforeach()
file(REMOVE_RECURSE ${WORK_DIR})
