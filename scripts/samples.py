#!/usr/bin/env python3
"""Summarize a `union-exp {phold,mix} --sample-out FILE` CPU profile.

    scripts/samples.py FILE...

A FILE holds executable-relative instruction addresses with their sample
counts (crates/harness/src/profiler.rs); several files of one executable
(repeated runs) are added up. The addresses are symbolized with
`addr2line -a -f -i -C`, inlined frames included: `llvm-addr2line` when it
is on PATH (it names the innermost inlined frame), else GNU `addr2line`
(which names that frame after the enclosing symbol; it is shown as
`<module>::?`). Prints, as shares of all samples:

* layers: a frame's layer is the crate module its source file belongs to
  (`crates/ross/src/queue.rs` -> `ross::queue`); a sample's *self* layer
  is its innermost frame in a repository crate (standard-library code
  counts toward the repository function it was inlined into), and a layer
  is *incl*uded in a sample when any frame of its inline chain is in it;
* functions: self = the innermost frame, incl = any frame of the inline
  chain (each counted once per sample). Inline-inclusive is not
  call-inclusive: an outlined callee's samples are its own;
* the hottest instructions with their inline chain. A sample lands on the
  instruction after the one the interrupt found executing, so a stall
  (a cache miss, a store-forwarding stall) shows on its successor.

Each table keeps its first `TOP` rows. DESIGN.md section 14 reads these
tables for the engine.
"""
import collections
import re
import shutil
import subprocess
import sys

TOP = 25
ADDR2LINE = shutil.which('llvm-addr2line') or 'addr2line'


def parse(paths):
    header, counts = collections.Counter(), collections.Counter()
    exes = set()
    for path in paths:
        with open(path) as f:
            for line in f:
                words = line[1:].split()
                if not line.startswith('#'):
                    if line.strip():
                        addr, n = line.split()
                        counts[int(addr, 16)] += int(n)
                elif words[:1] == ['exe']:
                    exes.add(line[1:].strip()[4:])
                elif words[:1] == ['samples']:
                    header.update(dict(zip(words[0::2], map(int, words[1::2]))))
                elif words[:1] == ['interval_us']:
                    header['interval_us'] = int(words[1])
    if len(exes) > 1:
        sys.exit(f'samples of different executables: {sorted(exes)}')
    header['exe'] = exes.pop() if exes else None
    return header, sorted(counts.items(), key=lambda kv: -kv[1])


def symbolize(exe, addrs):
    """Address -> frames [(name, file, line)], innermost first."""
    out = subprocess.run([ADDR2LINE, '-a', '-f', '-i', '-C', '-e', exe],
                         input=''.join(f'{a:#x}\n' for a in addrs),
                         capture_output=True, text=True, check=True).stdout
    frames, cur = {}, None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith('0x'):
            cur = frames.setdefault(int(line, 16), [])
            i += 1
            continue
        loc = lines[i + 1] if i + 1 < len(lines) else '??:0'
        file, _, num = loc.rpartition(':')
        cur.append((line, file, num.split()[0] if num else '0'))
        i += 2
    gnu = 'llvm' not in ADDR2LINE
    for chain in frames.values():
        if gnu and len(chain) > 1:
            name, file, num = chain[0]
            chain[0] = ('?', file, num)
    return frames


LEGACY = [('$LT$', '<'), ('$GT$', '>'), ('$RF$', '&'), ('$BP$', '*'), ('$C$', ','),
          ('$u20$', ' '), ('$u27$', "'"), ('$u5b$', '['), ('$u5d$', ']'),
          ('$u7b$', '{'), ('$u7d$', '}'), ('..', '::')]


def strip_generics(name):
    name = re.sub(r'^_\$', '$', name)
    for a, b in LEGACY:
        name = name.replace(a, b)
    name = re.sub(r'::h[0-9a-f]{16}$', '', name)
    # `<Type as Trait>::f` -> `Type::f`
    m = re.match(r'^<(.+?) as .+?>::(.*)$', name)
    if m:
        name = f'{m.group(1)}::{m.group(2)}'
    out, depth = [], 0
    for ch in name:
        if ch == '<':
            depth += 1
        elif ch == '>' and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return ''.join(out).lstrip('<')


def module_of(file):
    """(`crate::module`, in the repository?) for a source path."""
    m = re.search(r'/(crates|shims)/([^/]+)/src/(.*)\.rs$', file)
    if m and '/library/' not in file:
        parts = [m.group(2).replace('-', '_')] + m.group(3).split('/')
        parts = [p for p in parts if p not in ('lib', 'mod', 'main')]
        return '::'.join(parts[:2]), True
    m = re.search(r'/library/([^/]+)/src/([^/.]+)', file)
    if m:
        return f'{m.group(1)}::{m.group(2)}', False
    return '?', False


def label(frame):
    name, file, _ = frame
    short = strip_generics(name)
    mod, _ = module_of(file)
    if '::' in short or mod == '?':
        return short
    return f'{mod}::{short}'


def table(title, rows, total):
    print(f'\n## {title}\n   self%   incl%  name')
    for name, (s, inc) in rows[:TOP]:
        print(f'  {100 * s / total:6.2f}  {100 * inc / total:6.2f}  {name}')


def main():
    files = sys.argv[1:]
    if not files or any(f.startswith('-') for f in files):
        sys.exit(__doc__.split('\n\n')[1].strip())
    header, rows = parse(files)
    total = header.get('samples', 0)
    if not total:
        sys.exit(f'{" ".join(files)}: no samples')
    exe = header['exe']
    frames = symbolize(exe, [a for a, _ in rows])
    print(f'{total} samples ({header.get("outside", 0)} outside the executable, '
          f'{header.get("dropped", 0)} dropped), {header.get("interval_us")} us of CPU '
          f'per sample requested, {exe}, symbolized with {ADDR2LINE}')
    funcs = collections.defaultdict(lambda: [0, 0])
    ours_incl = collections.Counter()
    layers = collections.defaultdict(lambda: [0, 0])
    hot = []
    for addr, n in rows:
        chain = frames.get(addr) or [('??', '??', '0')]
        names = [label(f) for f in chain]
        funcs[names[0]][0] += n
        for name in set(names):
            funcs[name][1] += n
        mods = [module_of(f[1]) for f in chain]
        home = next((m for m, ours in mods if ours), 'outside the repository crates')
        layers[home][0] += n
        for m in {m for m, ours in mods if ours}:
            layers[m][1] += n
        for name in {x for x, (_, ours) in zip(names, mods) if ours}:
            ours_incl[name] += n
        where = f'{chain[0][1].rsplit("/", 1)[-1]}:{chain[0][2]}'
        outer = [x for x, (_, ours) in zip(names[1:], mods[1:]) if ours]
        hot.append((n, addr, names[0], where, outer))
    by = lambda d: sorted(d.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))
    table('layers', by(layers), total)
    table('functions by self', by(funcs), total)
    incl = sorted(((k, funcs[k]) for k in ours_incl), key=lambda kv: (-kv[1][1], kv[0]))
    table('repository functions by incl', incl, total)
    print('\n## hottest instructions\n  share%  address   innermost (file:line)  <- inlined into')
    for n, addr, name, where, outer in sorted(hot, key=lambda h: (-h[0], h[1]))[:TOP]:
        chain = ''.join(f' <- {x}' for x in dict.fromkeys(outer))
        print(f'  {100 * n / total:6.2f}  {addr:#9x}  {name} ({where}){chain}')


if __name__ == '__main__':
    main()
