# Runs one spb_check command and compares its stdout with a golden file.
#
#   cmake -DCHECK=path/to/spb_check "-DARGS=--machine paragon4x4 --verbose"
#         -DGOLDEN=path/to/golden.txt -P golden_check.cmake
#
# The command must exit 0.  With SPB_UPDATE_GOLDEN=1 in the environment the
# golden file is rewritten instead (review the diff before committing it).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CHECK}" ${args}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spb_check ${ARGS} exited with ${rc}")
endif()
if(DEFINED ENV{SPB_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${out}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "spb_check ${ARGS}: output differs from ${GOLDEN}; "
                      "the actual output is in ${actual}")
endif()
