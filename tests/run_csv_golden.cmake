# Runs a figure driver with PCON_CSV_DIR set and byte-compares the CSV
# it writes with a golden copy; fails if the driver exits nonzero or
# the bytes differ.
#
#   cmake -DDRIVER=<exe> -DOUT_DIR=<dir> -DCSV=<name>.csv
#         -DGOLDEN=<file> -P run_csv_golden.cmake

file(REMOVE "${OUT_DIR}/${CSV}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "PCON_CSV_DIR=${OUT_DIR}"
            "${DRIVER}"
    RESULT_VARIABLE driver_rc)
if(NOT driver_rc EQUAL 0)
    message(FATAL_ERROR "${DRIVER} exited with ${driver_rc}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT_DIR}/${CSV}"
            "${GOLDEN}"
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${OUT_DIR}/${CSV} differs from ${GOLDEN}")
endif()
