# Regenerate one committed baseline and require the same bytes:
#
#   cmake -DREF=<committed.json> -DOUT=<regenerated.json> \
#         -P baseline_identity.cmake -- <command that writes OUT...>
#
# Virtual time makes every bench deterministic, so any difference is a
# change to the simulated machine. Refresh the baseline when it is meant.
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd "")
set(in_cmd FALSE)
foreach(i RANGE 0 ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(cmd STREQUAL "" OR NOT DEFINED REF OR NOT DEFINED OUT)
  message(FATAL_ERROR "usage: cmake -DREF=... -DOUT=... -P "
                      "baseline_identity.cmake -- <command...>")
endif()

file(REMOVE "${OUT}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed (${rc}): ${cmd}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${REF}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${REF}")
endif()
