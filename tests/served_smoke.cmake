# Smoke test of the serving daemon: synth -> train -> convert to binary OCLR
# -> serve a scripted JSON session through ocular_served (recommend, stats,
# hot-reload, recommend again) and check the replies; then shard the model
# 1 and 3 ways and require every binding to answer one session
# byte-identically. Run by ctest as:
#   cmake -DOCULAR_CLI=... -DOCULAR_SERVED=... -DWORK_DIR=... -P served_smoke.cmake

file(MAKE_DIRECTORY ${WORK_DIR})
set(DATA ${WORK_DIR}/served.tsv)
set(MODEL_TXT ${WORK_DIR}/served.model)
set(MODEL_BIN ${WORK_DIR}/served.oclr)
set(SESSION ${WORK_DIR}/session.jsonl)

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(JOIN ARGV " " cmdline)
    message(FATAL_ERROR "served smoke step failed (exit ${rc}): ${cmdline}")
  endif()
endfunction()

run_step(${OCULAR_CLI} synth --dataset=b2b --scale=0.02 --seed=7 --output=${DATA})
run_step(${OCULAR_CLI} train --input=${DATA} --model=${MODEL_TXT} --k=8 --lambda=0.5 --sweeps=4)
run_step(${OCULAR_CLI} convert --in=${MODEL_TXT} --out=${MODEL_BIN})

# One scripted session: the same recommend before and after a hot reload
# must produce byte-identical reply lines (same file on disk), stats must
# report the traffic, and a malformed line must not kill the loop.
file(WRITE ${SESSION} "{\"cmd\":\"recommend\",\"user\":3,\"m\":5}
{\"cmd\":\"models\"}
this line is not json
{\"cmd\":\"reload\"}
{\"cmd\":\"recommend\",\"user\":3,\"m\":5}
{\"cmd\":\"stats\"}
{\"cmd\":\"quit\"}
")

execute_process(
  COMMAND ${OCULAR_SERVED} --models=default=${MODEL_BIN} --datasets=default=${DATA}
  INPUT_FILE ${SESSION}
  OUTPUT_VARIABLE REPLIES
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ocular_served exited ${rc}")
endif()

string(REPLACE "\n" ";" REPLY_LINES "${REPLIES}")
list(LENGTH REPLY_LINES NUM_LINES)
if(NUM_LINES LESS 7)
  message(FATAL_ERROR "expected 7 reply lines, got ${NUM_LINES}: ${REPLIES}")
endif()

list(GET REPLY_LINES 0 RECOMMEND_BEFORE)
list(GET REPLY_LINES 1 MODELS_REPLY)
list(GET REPLY_LINES 2 BAD_REPLY)
list(GET REPLY_LINES 3 RELOAD_REPLY)
list(GET REPLY_LINES 4 RECOMMEND_AFTER)
list(GET REPLY_LINES 5 STATS_REPLY)

foreach(line IN ITEMS "${RECOMMEND_BEFORE}" "${MODELS_REPLY}" "${RELOAD_REPLY}" "${RECOMMEND_AFTER}" "${STATS_REPLY}")
  if(NOT line MATCHES "\"ok\":true")
    message(FATAL_ERROR "expected ok:true reply, got: ${line}")
  endif()
endforeach()
if(NOT RECOMMEND_BEFORE MATCHES "\"items\":\\[\\{\"item\":")
  message(FATAL_ERROR "recommend reply carries no items: ${RECOMMEND_BEFORE}")
endif()
if(NOT BAD_REPLY MATCHES "\"ok\":false")
  message(FATAL_ERROR "malformed request must answer ok:false: ${BAD_REPLY}")
endif()
if(NOT RELOAD_REPLY MATCHES "\"reloaded\":1")
  message(FATAL_ERROR "reload must report one model: ${RELOAD_REPLY}")
endif()
if(NOT RECOMMEND_BEFORE STREQUAL RECOMMEND_AFTER)
  message(FATAL_ERROR "top-M changed across a same-file hot reload:\n${RECOMMEND_BEFORE}\n${RECOMMEND_AFTER}")
endif()
if(NOT STATS_REPLY MATCHES "\"requests_served\":5")
  message(FATAL_ERROR "stats must count the 5 prior requests: ${STATS_REPLY}")
endif()
if(NOT STATS_REPLY MATCHES "\"reloads\":1")
  message(FATAL_ERROR "stats must count the reload: ${STATS_REPLY}")
endif()

# The daemon must agree with the CLI `recommend` path on the same model,
# dataset and user — same items in the same order (this is the guard
# against exclusion/id-mapping drift between the two loaders).
execute_process(
  COMMAND ${OCULAR_CLI} recommend --model=${MODEL_BIN} --input=${DATA} --user=3 --m=5 --json
  OUTPUT_VARIABLE CLI_JSON
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cli recommend exited ${rc}")
endif()
string(REGEX MATCHALL "\"item\":[0-9]+" DAEMON_ITEMS "${RECOMMEND_BEFORE}")
string(REGEX MATCHALL "\"item\":[0-9]+" CLI_ITEMS "${CLI_JSON}")
if(NOT DAEMON_ITEMS STREQUAL CLI_ITEMS)
  message(FATAL_ERROR "daemon and CLI recommend disagree:\n  daemon: ${DAEMON_ITEMS}\n  cli:    ${CLI_ITEMS}")
endif()

# Binding parity: the .oclr, its 1-shard set and its 3-shard set are one
# model, so a session of stored users at every shard edge, one history and
# one signal-free history must get the same reply bytes from each binding
# (once the sharded replies' "shard":N, tag is removed), with the dataset
# bound and without it.
set(SHARD1 ${WORK_DIR}/served1.shardset)
set(SHARD3 ${WORK_DIR}/served3.shardset)
set(PARITY_SESSION ${WORK_DIR}/parity.jsonl)
run_step(${OCULAR_CLI} shard --in=${MODEL_BIN} --out=${SHARD1} --shards=1)
run_step(${OCULAR_CLI} shard --in=${MODEL_BIN} --out=${SHARD3} --shards=3)

file(STRINGS ${SHARD3} SHARD_LINES REGEX "^shard ")
set(PARITY_LINES "")
foreach(line IN LISTS SHARD_LINES)
  if(NOT line MATCHES "^shard ([0-9]+) ([0-9]+) ")
    message(FATAL_ERROR "unexpected manifest line: ${line}")
  endif()
  math(EXPR last_user "${CMAKE_MATCH_2} - 1")
  foreach(user IN ITEMS ${CMAKE_MATCH_1} ${last_user})
    string(APPEND PARITY_LINES "{\"cmd\":\"recommend\",\"user\":${user},\"m\":5}\n")
  endforeach()
endforeach()
string(APPEND PARITY_LINES "{\"cmd\":\"recommend\",\"history\":[1,5,9],\"m\":5}
{\"cmd\":\"recommend\",\"history\":[],\"m\":5}
{\"cmd\":\"quit\"}
")
file(WRITE ${PARITY_SESSION} "${PARITY_LINES}")

# Replays the parity session against `model` and stores the replies, minus
# the shard tags, in `out_var`.
function(replay_parity model out_var)
  execute_process(
    COMMAND ${OCULAR_SERVED} --models=default=${model} ${ARGN}
    INPUT_FILE ${PARITY_SESSION}
    OUTPUT_VARIABLE replies
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ocular_served on ${model} exited ${rc}")
  endif()
  string(REGEX REPLACE "\"shard\":[0-9]+," "" replies "${replies}")
  set(${out_var} "${replies}" PARENT_SCOPE)
endfunction()

foreach(mode IN ITEMS with_dataset without_dataset)
  set(dataset_flag "")
  if(mode STREQUAL "with_dataset")
    set(dataset_flag --datasets=default=${DATA})
  endif()
  replay_parity(${MODEL_BIN} MONO_REPLIES ${dataset_flag})
  string(REPLACE "\n" ";" MONO_LINES "${MONO_REPLIES}")
  foreach(line IN LISTS MONO_LINES)
    if(line AND NOT line MATCHES "\"ok\":true")
      message(FATAL_ERROR "parity session (${mode}) got an error: ${line}")
    endif()
  endforeach()
  foreach(set_path IN ITEMS ${SHARD1} ${SHARD3})
    replay_parity(${set_path} SET_REPLIES ${dataset_flag})
    if(NOT SET_REPLIES STREQUAL MONO_REPLIES)
      string(REPLACE "\n" ";" SET_LINES "${SET_REPLIES}")
      list(LENGTH MONO_LINES count)
      math(EXPR last "${count} - 1")
      foreach(n RANGE ${last})
        list(GET MONO_LINES ${n} want)
        list(GET SET_LINES ${n} got)
        if(NOT want STREQUAL got)
          message(FATAL_ERROR "${set_path} (${mode}) differs from ${MODEL_BIN} on line ${n}:\n  oclr: ${want}\n  set:  ${got}")
        endif()
      endforeach()
      message(FATAL_ERROR "${set_path} (${mode}) replies differ from ${MODEL_BIN}")
    endif()
  endforeach()
endforeach()
