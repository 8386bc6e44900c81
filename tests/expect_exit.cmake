# ctest helper for CLI error paths: runs PROG with ARGS (one string,
# split like a shell command line) and passes only when it exits with
# EXPECT_CODE and its stderr matches the regex EXPECT_STDERR. With
# EXPECT_NO_FILE, that file is removed first and must not exist after.
#
#   cmake -DPROG=<exe> "-DARGS=--flag=value" -DEXPECT_CODE=2
#         -DEXPECT_STDERR=<regex> [-DEXPECT_NO_FILE=<path>]
#         -P expect_exit.cmake
if(DEFINED EXPECT_NO_FILE)
  file(REMOVE "${EXPECT_NO_FILE}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE code
                ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR
          "expected exit code ${EXPECT_CODE}, got '${code}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
if(DEFINED EXPECT_NO_FILE AND EXISTS "${EXPECT_NO_FILE}")
  message(FATAL_ERROR "${PROG} wrote ${EXPECT_NO_FILE} despite failing")
endif()
