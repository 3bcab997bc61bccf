#!/usr/bin/env bash
# Size census of the workspace's library code.
#
# Prints two numbers:
#   non_test_lines     lines of tracked crates/**/*.rs outside tests/ dirs,
#                      counted up to each file's first #[cfg(test)];
#   lib_panic_sites    .unwrap(), .expect( and panic!( in the same span,
#                      excluding benches/ and src/bin/.
# Informational only: no threshold is applied.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files 'crates/*.rs' | grep -v '/tests/')
lib_files=$(printf '%s\n' "$files" | grep -v -e '/benches/' -e '/src/bin/')

# Print each file's non-test span (everything before its first #[cfg(test)]).
non_test() {
    # shellcheck disable=SC2086
    awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip' $1
}

echo "non_test_lines $(non_test "$files" | wc -l)"
echo "lib_panic_sites $(non_test "$lib_files" | grep -o -e '\.unwrap()' -e '\.expect(' -e 'panic!(' | wc -l)"
