# Shared target configuration for every pghive library / executable.
#
# pghive_target_defaults(<target>) applies the include layout (sources use
# "util/...", "core/..." relative to src/, and bench uses "bench/..." relative
# to the repo root), the warning policy, and the PGHIVE_SANITIZE flags.
#
# pghive_add_layer(<name> DEPS <layers...>) defines one src/<layer> static
# library named pghive_<name> (aliased pghive::<name>) from the .cc files in
# the calling directory.

set(PGHIVE_WARNING_FLAGS -Wall -Wextra)
if(PGHIVE_WERROR)
  list(APPEND PGHIVE_WARNING_FLAGS -Werror)
endif()
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU"
   AND CMAKE_CXX_COMPILER_VERSION VERSION_LESS 13)
  # GCC 12 emits false-positive maybe-uninitialized warnings for the inactive
  # alternative of std::variant under -O2 (util::StatusOr<T> trips it), and
  # false-positive -Wrestrict on inlined std::string concatenation
  # (GCC PR105329, fixed in 13). Both stay enabled on GCC >= 13 and clang.
  list(APPEND PGHIVE_WARNING_FLAGS -Wno-maybe-uninitialized -Wno-restrict)
endif()

function(pghive_target_defaults target)
  target_include_directories(${target} PUBLIC
    ${PROJECT_SOURCE_DIR}/src
    ${PROJECT_SOURCE_DIR})
  target_compile_options(${target} PRIVATE
    ${PGHIVE_WARNING_FLAGS}
    ${PGHIVE_SANITIZER_FLAGS})
  target_link_options(${target} PRIVATE ${PGHIVE_SANITIZER_FLAGS})
endfunction()

function(pghive_add_layer name)
  cmake_parse_arguments(ARG "" "" "DEPS" ${ARGN})
  file(GLOB _sources CONFIGURE_DEPENDS ${CMAKE_CURRENT_SOURCE_DIR}/*.cc)
  add_library(pghive_${name} STATIC ${_sources})
  add_library(pghive::${name} ALIAS pghive_${name})
  pghive_target_defaults(pghive_${name})
  foreach(_dep IN LISTS ARG_DEPS)
    target_link_libraries(pghive_${name} PUBLIC pghive::${_dep})
  endforeach()
endfunction()
