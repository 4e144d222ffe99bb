# Gives test cases a second label next to the one their test binary
# was discovered with: the fault-injection cases of the serve and
# multicore test files get `chaos`, so `ctest --preset chaos` selects
# them while the tsan preset still finds them by `serve`/`multicore`,
# and every test_protocol and test_serve case gets `sanitize`, so the
# asan preset (which does not select `serve`) runs the frame codec, the
# JSON parser, the scheduler and the server too.
# gtest_discover_tests flattens a multi-label PROPERTIES value to its
# first label, so the labels are set here instead, from the test lists
# the discovered-test scripts define (<target>_TESTS).  CTest includes
# this file after those scripts (tests/CMakeLists.txt).
foreach(test IN LISTS test_protocol_TESTS)
    if(test MATCHES "^NetFaults\\.")
        set_tests_properties("${test}" PROPERTIES
                             LABELS "serve;chaos;sanitize")
    else()
        set_tests_properties("${test}" PROPERTIES LABELS "serve;sanitize")
    endif()
endforeach()
foreach(test IN LISTS test_multicore_equivalence_TESTS)
    if(test MATCHES "^MulticoreChaos\\.")
        set_tests_properties("${test}" PROPERTIES LABELS "multicore;chaos")
    endif()
endforeach()
foreach(test IN LISTS test_serve_TESTS)
    set_tests_properties("${test}" PROPERTIES LABELS "serve;sanitize")
endforeach()
