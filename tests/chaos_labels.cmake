# Gives the fault-injection cases of the serve and multicore test files
# the `chaos` label next to their own, so `ctest --preset chaos` selects
# them while the tsan preset still finds them by `serve`/`multicore`.
# gtest_discover_tests flattens a multi-label PROPERTIES value to its
# first label, so the labels are set here instead, from the test lists
# the discovered-test scripts define (<target>_TESTS).  CTest includes
# this file after those scripts (tests/CMakeLists.txt).
foreach(test IN LISTS test_protocol_TESTS)
    if(test MATCHES "^NetFaults\\.")
        set_tests_properties("${test}" PROPERTIES LABELS "serve;chaos")
    endif()
endforeach()
foreach(test IN LISTS test_multicore_equivalence_TESTS)
    if(test MATCHES "^MulticoreChaos\\.")
        set_tests_properties("${test}" PROPERTIES LABELS "multicore;chaos")
    endif()
endforeach()
