#!/usr/bin/env bash
# generate -> solve -> metrics -> gantt through the installed `efjsp` entry
# point, then the refusals a user meets first.  Run it from an empty
# scratch directory; it writes its files there.
set -euo pipefail

# expect_refusal STATUS PATTERN CMD...: CMD exits with STATUS and prints one
# stderr line, which matches PATTERN
expect_refusal() {
  local want=$1 pattern=$2 status=0
  shift 2
  "$@" 2> refusal.err || status=$?
  test "$status" -eq "$want"
  test "$(wc -l < refusal.err)" -eq 1
  grep -q "$pattern" refusal.err
}

efjsp --version
python -c "from efjsp.benchmark import random_base, write_base; print(write_base(random_base(4, 3, seed=1)), end='')" > base.txt
efjsp generate base.txt --seed 1
efjsp solve base.yaml --pop 6 --iters 1 --seed 1 --out result.yaml
efjsp metrics result.yaml --out report.yaml
efjsp gantt result.yaml --out chart

# an instance writes each option as one [machine, gear, duration] row of integers
python -c "import yaml; o = yaml.safe_load(open('base.yaml'))['jobs'][0]['operations'][0]['options'][0]; assert type(o) is list and len(o) == 3 and all(type(v) is int for v in o), o"

# a version-1 instance (options as mappings) is refused, naming the file and schema_version
python -c "import yaml; d = yaml.safe_load(open('base.yaml')); d['schema_version'] = 1; [op.update(options=[dict(zip(('machine', 'gear', 'duration'), r)) for r in op['options']]) for j in d['jobs'] for op in j['operations']]; yaml.safe_dump(d, open('v1.yaml', 'w'))"
expect_refusal 1 '^error:.*v1\.yaml.*schema_version' efjsp solve v1.yaml --out v1-result.yaml
test ! -e v1-result.yaml

# a result whose instance was edited after the solve is refused, naming the result
mkdir edited
cp result.yaml base.yaml edited/
echo "# edited" >> edited/base.yaml
expect_refusal 1 '^error:.*edited/result\.yaml' efjsp gantt edited/result.yaml --out edited/chart

# --replicas of 10**30 is refused before any file is written
expect_refusal 1 '^error:' efjsp generate base.txt --replicas 1000000000000000000000000000000
test ! -e base-01.yaml

# a file name that is not UTF-8 is written escaped and reads back
cp result.yaml "$(printf 'r\377.yaml')"
efjsp metrics "$(printf 'r\377.yaml')" --out named.yaml
python -c "import os, yaml; f = yaml.safe_load(open('named.yaml'))['results'][0]['file']; assert f == os.fsdecode(b'r\xff.yaml'), f"

# a 100,000-level document is refused, naming the file, not a crash
python -c "print('[' * 100000 + ']' * 100000)" > deep.yaml
expect_refusal 1 '^error:.*deep\.yaml' efjsp metrics deep.yaml

# a 400-digit setup power is refused
python -c "import yaml; d = yaml.safe_load(open('base.yaml')); d['machines'][0]['setup_power'] = 10**399; yaml.safe_dump(d, open('big.yaml', 'w'))"
expect_refusal 1 '^error:.*big\.yaml' efjsp solve big.yaml --out big-result.yaml

# an instance whose every process power is 1e308 is refused: each power is finite,
# but a schedule's total energy would not be
python -c "import yaml; d = yaml.safe_load(open('base.yaml')); [m.update(process_power=[1e308] * len(m['process_power'])) for m in d['machines']]; yaml.safe_dump(d, open('overflow.yaml', 'w'))"
expect_refusal 1 '^error:.*overflow\.yaml.*energy bound' efjsp solve overflow.yaml --pop 6 --iters 2 --out overflow-result.yaml
test ! -e overflow-result.yaml

# an archive whose first cmax is -5 is refused
python -c "import yaml; d = yaml.safe_load(open('result.yaml')); d['archive'][0]['cmax'] = -5; yaml.safe_dump(d, open('neg.yaml', 'w'))"
expect_refusal 1 '^error:.*neg\.yaml' efjsp gantt neg.yaml --out neg-chart

# a solution index past a four-solution archive is refused, naming the file
expect_refusal 1 '^error:.*result\.yaml' efjsp gantt result.yaml --solution 9 --out bad-chart

# a population of 10**30 is refused, naming the flag
expect_refusal 1 '^error: --pop' efjsp solve base.yaml --pop 1000000000000000000000000000000 --out big-pop.yaml

# results of two different instances are refused
python -c "from efjsp.benchmark import random_base, write_base; print(write_base(random_base(3, 2, seed=2)), end='')" > second.txt
efjsp generate second.txt --seed 1
efjsp solve second.yaml --pop 6 --iters 1 --seed 1 --out other.yaml
expect_refusal 1 '^error:.*other\.yaml' efjsp metrics result.yaml other.yaml

# results that carry no instance hash are refused, naming the file and the field
grep -v '^instance_sha256:' result.yaml > unhashed.yaml
grep -v '^instance_sha256:' other.yaml > unhashed-other.yaml
expect_refusal 1 '^error:.*unhashed\.yaml.*instance_sha256' efjsp metrics unhashed.yaml unhashed-other.yaml

# a setting that is gone (disable_vns is vns_budget: 0) is an unknown key, naming the config
echo "disable_vns: true" > removed.yaml
expect_refusal 1 '^error:.*removed\.yaml' efjsp solve base.yaml --config removed.yaml --out removed-result.yaml

# --ablate ncp runs no local search, recorded as vns_budget: 0
efjsp solve base.yaml --pop 6 --iters 1 --seed 1 --ablate ncp --out ncp.yaml
python -c "import yaml; c = yaml.safe_load(open('ncp.yaml'))['config']; assert c['vns_budget'] == 0, c"

# a malformed result is refused, naming it
printf 'a: [1, 2\n' > bad.yaml
expect_refusal 1 '^error:.*bad\.yaml' efjsp metrics result.yaml bad.yaml

# generate writes nothing when a later base file is refused
printf '2 1\n1 1 1 5\n' > short.txt
expect_refusal 1 '^error:.*short\.txt' efjsp generate base.txt short.txt --out-dir partial
test ! -e partial

# two base files of one stem would write one instance path twice: refused before --out-dir exists
mkdir again
cp base.txt again/base.txt
expect_refusal 1 '^error:.*again/base\.txt' efjsp generate base.txt again/base.txt --out-dir twice
test ! -e twice

# no command writes over one of its own inputs
cp result.yaml result.copy
expect_refusal 1 '^error:.*result\.yaml' efjsp gantt result.yaml --out result
cmp result.yaml result.copy
cp base.yaml base.copy
expect_refusal 1 '^error:.*base\.yaml' efjsp solve base.yaml --out base.yaml
cmp base.yaml base.copy

# a target name too long to create fails after --out-dir was made: the directories generate made go again
long=$(printf 'b%.0s' $(seq 251))
cp base.txt "$long.txt"
expect_refusal 2 '^error:.*File name too long' efjsp generate "$long.txt" --out-dir made/deeper
test ! -e made
