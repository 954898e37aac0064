# statedump --verify runs the per-shard check ShardedMonitor::Open runs:
# it must pass a clean persisted fleet (exit 0) and refuse one whose
# manifest registers another fleet's shard image (exit 2).
#   cmake -DWRITER=<write_foreign_shard_dir> -DSTATEDUMP=<statedump> \
#         -DDIR=<scratch dir> -P cmake/StatedumpForeignShard.cmake
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${WRITER} ${DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${WRITER} exited with ${rc}")
endif()
foreach(pair IN ITEMS "clean;0" "foreign;2")
  list(GET pair 0 name)
  list(GET pair 1 want)
  execute_process(COMMAND ${STATEDUMP} ${DIR}/${name} --verify
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR
            "statedump --verify on ${name} exited ${rc}, expected ${want}:\n${out}")
  endif()
endforeach()
file(REMOVE_RECURSE ${DIR})
