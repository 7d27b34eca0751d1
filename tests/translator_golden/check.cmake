# Byte-for-byte check of the translator's outputs on every shipped OpenMP
# input (examples/openmp_pi.c and every tests/translator_inputs/*.c):
# generated code, the analyzer report, SARIF and the static cost estimate.
# sync_scalars.c is also translated at --threshold=1, the conventional
# translation that puts every critical/atomic on the DSM lock path. Each
# output is compared with the committed file of the same name in this
# directory, and every other file here (except this script) fails the check
# as an orphan that no run produces any more.
#
#   cmake -DOMCC=<parade_omcc> -DLINT=<parade_lint> -DSOURCE_DIR=<repo root>
#         -DOUT_DIR=<scratch dir> [-DUPDATE=ON] -P check.cmake
#
# With -DUPDATE=ON the committed files are rewritten instead of compared.
# Inputs are passed by their path relative to the repo root, so the file
# names embedded in the reports do not depend on where the tree is checked
# out.
file(GLOB corpus RELATIVE ${SOURCE_DIR}
  ${SOURCE_DIR}/tests/translator_inputs/*.c)
set(INPUTS examples/openmp_pi.c ${corpus})
set(GOLDEN_DIR ${SOURCE_DIR}/tests/translator_golden)
file(MAKE_DIRECTORY ${OUT_DIR})

set(failures "")
set(produced check.cmake)
foreach(input ${INPUTS})
  get_filename_component(stem ${input} NAME_WE)
  set(runs
    "translate.cpp|${OMCC}|${input}"
    "analyze.json|${OMCC}|${input}|--analyze=json"
    "sarif|${LINT}|--sarif|${input}"
    "cost.txt|${LINT}|--cost=4|${input}")
  if(stem STREQUAL "sync_scalars")
    list(APPEND runs "threshold1.translate.cpp|${OMCC}|${input}|--threshold=1")
  endif()
  foreach(run ${runs})
    string(REPLACE "|" ";" parts "${run}")
    list(GET parts 0 suffix)
    list(SUBLIST parts 1 -1 command)
    set(name ${stem}.${suffix})
    list(APPEND produced ${name})
    execute_process(COMMAND ${command}
      WORKING_DIRECTORY ${SOURCE_DIR}
      OUTPUT_FILE ${OUT_DIR}/${name}
      RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      list(APPEND failures "${name}: exit ${code}")
      continue()
    endif()
    if(UPDATE)
      configure_file(${OUT_DIR}/${name} ${GOLDEN_DIR}/${name} COPYONLY)
      continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      ${OUT_DIR}/${name} ${GOLDEN_DIR}/${name}
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      list(APPEND failures "${name}: differs from ${GOLDEN_DIR}/${name}")
    endif()
  endforeach()
endforeach()

file(GLOB committed RELATIVE ${GOLDEN_DIR} ${GOLDEN_DIR}/*)
foreach(name ${committed})
  list(FIND produced ${name} index)
  if(index EQUAL -1)
    list(APPEND failures "${name}: orphan golden, produced by no run")
  endif()
endforeach()

if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "translator golden mismatch:\n  ${report}")
endif()
