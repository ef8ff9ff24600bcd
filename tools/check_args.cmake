# Driver for one command-line contract test: runs TOOL with ARGS (one
# space-separated string) in a fresh, empty WORK_DIR and asserts that
# the exit status is exactly WANT_EXIT and that the run left WORK_DIR
# empty.
#
#   cmake -DTOOL=... "-DARGS=..." -DWANT_EXIT=N -DWORK_DIR=...
#         -P check_args.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
    COMMAND ${TOOL} ${args}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE got
    ERROR_VARIABLE got_err
    RESULT_VARIABLE status)

file(GLOB left RELATIVE ${WORK_DIR} ${WORK_DIR}/*)
file(REMOVE_RECURSE ${WORK_DIR})

if(NOT status STREQUAL WANT_EXIT)
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: exit ${status}, expected ${WANT_EXIT}\n"
        "stdout:\n${got}\nstderr:\n${got_err}")
endif()
if(left)
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: left files in its working directory: ${left}")
endif()
