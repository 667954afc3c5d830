#!/bin/sh
# Command-line error contract of the benches and tools: an unknown flag and
# a malformed engine spec must both exit with status 2. Any other status
# fails, including an abort from an uncaught exception.
#
# usage: cli_exit_codes.sh [--joined BIN...] [--split BIN...]
#   binaries after --joined take `--engine=SPEC`, after --split
#   `--engine SPEC`.
style=joined
failed=0

expect2() {
  "$@" < /dev/null > /dev/null 2>&1
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: exit $status (want 2): $*"
    failed=1
  else
    echo "ok: $*"
  fi
}

for arg in "$@"; do
  case "$arg" in
    --joined) style=joined ;;
    --split) style=split ;;
    *)
      expect2 "$arg" --bogus
      if [ "$style" = joined ]; then
        expect2 "$arg" --engine=parallel:x
      else
        expect2 "$arg" --engine parallel:x
      fi
      ;;
  esac
done
exit "$failed"
