# Driver for the telemetry end-to-end test: runs PERF (dsa_perf_micros)
# on a short async memcpy with DSASIM_STATS pointing into a fresh,
# empty WORK_DIR, then asserts that the run exported exactly one file
# (the .csv time series) and that STATSDUMP --list finds a column of
# every component family in it.
#
#   cmake -DPERF=... -DSTATSDUMP=... -DWORK_DIR=...
#         -P check_telemetry.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(ENV{DSASIM_STATS} "${WORK_DIR}/ci-")
execute_process(
    COMMAND ${PERF} --op=memcpy --ts=4096 --mode=async --qd=32
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PERF}: exit ${status}\nstderr:\n${err}")
endif()

file(GLOB exported ${WORK_DIR}/*)
list(LENGTH exported count)
if(NOT count EQUAL 1 OR NOT exported MATCHES "\\.csv$")
    message(FATAL_ERROR
        "expected exactly one exported .csv, found: ${exported}")
endif()

execute_process(
    COMMAND ${STATSDUMP} --list ${exported}
    OUTPUT_VARIABLE listed
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
file(REMOVE_RECURSE ${WORK_DIR})
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${STATSDUMP} --list: exit ${status}\n${err}")
endif()

foreach(metric
        dsa0.descriptors_submitted  # device
        dsa0.wq0.depth              # WQ admission
        dsa0.eng0.bytes_read        # processing engines
        dsa0.eng0.utilization
        llc.occupancy_bytes         # LLC / DDIO
        llc.miss_bytes
        iommu.translations)         # address translation
    string(FIND "\n${listed}" "\n${metric}\n" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "telemetry: ${metric} missing from the exported CSV")
    endif()
endforeach()
