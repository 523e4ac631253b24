# Shared compile/link options for every avt target, attached via the
# avt_build_flags INTERFACE library.
#
#   AVT_WERROR   — promote warnings to errors (the source tree is clean
#                  under -Wall -Wextra -Wpedantic -Wshadow; keep it so).
#   AVT_SANITIZE — ON/address selects AddressSanitizer + UBSan (all
#                  suites currently pass under it at seed scale; CI runs
#                  the `unit` label plus a reduced differential fuzz).

add_library(avt_build_flags INTERFACE)

target_compile_options(avt_build_flags INTERFACE
  -Wall -Wextra -Wpedantic -Wshadow)

if(AVT_WERROR)
  target_compile_options(avt_build_flags INTERFACE -Werror)
endif()

if(AVT_SANITIZE)
  string(TOLOWER "${AVT_SANITIZE}" _avt_sanitize_mode)
  if(_avt_sanitize_mode STREQUAL "on" OR
         _avt_sanitize_mode STREQUAL "true" OR
         _avt_sanitize_mode STREQUAL "1" OR
         _avt_sanitize_mode STREQUAL "address")
    target_compile_options(avt_build_flags INTERFACE
      -fsanitize=address,undefined -fno-omit-frame-pointer -g)
    target_link_options(avt_build_flags INTERFACE
      -fsanitize=address,undefined)
  else()
    message(FATAL_ERROR
      "AVT_SANITIZE must be OFF or ON/address (got "
      "'${AVT_SANITIZE}')")
  endif()
endif()
