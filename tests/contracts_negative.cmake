# Proves the predictor contract layer fails the build *readably* when a
# roster type does not conform: compiles tests/contracts_break.cc with
# -fsyntax-only, requires a nonzero exit AND the contract clause text in
# the diagnostics. Three flavours are compiled — the structural violation
# (default), the state-contract violation (COPRA_BREAK_STATE_CONTRACT),
# which must additionally name COPRA_STATE_FIELDS in its diagnostic, and
# the batch-loop violation (COPRA_BREAK_STEP_BATCH), which must name
# predictUpdateSoa.
# Driven by ctest as `contracts_negative`.
#
# Inputs: -DCXX=<compiler> -DSRC=<repo root>

execute_process(
    COMMAND ${CXX} -std=c++20 -fsyntax-only -I${SRC}/src
            ${SRC}/tests/contracts_break.cc
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(rc EQUAL 0)
    message(FATAL_ERROR
        "contracts_break.cc compiled cleanly; the predictor contract "
        "layer no longer rejects non-conforming types")
endif()

string(FIND "${err}${out}" "copra predictor contract" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
        "compilation failed but without the readable contract message; "
        "diagnostics were:\n${err}")
endif()

message(STATUS
    "structural violation rejected with a readable diagnostic, as designed")

execute_process(
    COMMAND ${CXX} -std=c++20 -fsyntax-only -I${SRC}/src
            -DCOPRA_BREAK_STATE_CONTRACT
            ${SRC}/tests/contracts_break.cc
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(rc EQUAL 0)
    message(FATAL_ERROR
        "the state-contract violation compiled cleanly; the contract "
        "layer no longer requires the predictor state contract")
endif()

string(FIND "${err}${out}" "copra predictor contract" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
        "state-contract compilation failed but without the readable "
        "contract message; diagnostics were:\n${err}")
endif()

string(FIND "${err}${out}" "COPRA_STATE_FIELDS" state_pos)
if(state_pos EQUAL -1)
    message(FATAL_ERROR
        "state-contract diagnostic does not name COPRA_STATE_FIELDS; "
        "diagnostics were:\n${err}")
endif()

message(STATUS
    "state-contract violation rejected with a readable diagnostic, "
    "as designed")

execute_process(
    COMMAND ${CXX} -std=c++20 -fsyntax-only -I${SRC}/src
            -DCOPRA_BREAK_STEP_BATCH
            ${SRC}/tests/contracts_break.cc
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(rc EQUAL 0)
    message(FATAL_ERROR
        "the batch-loop violation compiled cleanly; the contract layer "
        "no longer requires a step() class to declare its own "
        "predictUpdateSoa()")
endif()

string(FIND "${err}${out}" "copra predictor contract" pos)
string(FIND "${err}${out}" "predictUpdateSoa" batch_pos)
if(pos EQUAL -1 OR batch_pos EQUAL -1)
    message(FATAL_ERROR
        "batch-loop compilation failed but without the readable contract "
        "message naming predictUpdateSoa; diagnostics were:\n${err}")
endif()

message(STATUS
    "batch-loop violation rejected with a readable diagnostic, as designed")
