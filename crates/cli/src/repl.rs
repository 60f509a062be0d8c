//! Interactive session mode: `ruvo repl [base-file]`.
//!
//! Update-rules typed at the prompt are collected until a line ends
//! with `.`, then applied as one transactional update-program through
//! a [`ruvo_core::Database`] handle. Meta-commands start with `:`.

use std::io::{BufRead, Write};

use ruvo_core::{history, Database};
use ruvo_lang::Program;
use ruvo_obase::{snapshot, ObjectBase};
use ruvo_term::oid;

const HELP: &str = "\
commands:
  :load <file>        load object base (text .ob or binary snapshot)
  :save [--bin|--text] <file>
                      save object base; without a flag the extension
                      decides (.snap/.ruvosnap → binary, else text)
  :show [object]      print the object base (or one object)
  :history <object>   version history of <object> in the last transaction
  :run <file>         apply a program file as a transaction
  :strata <file>      show the stratification of a program file
  :check <file>       static analysis: lints, conflicts, dead rules
  :deps <file>        rule dependency graph: read/write sets,
                      typed edges, advisory lints
  :savepoint          create a savepoint
  :rollback <n>       roll back to savepoint n
  :log                list committed transactions
  :stats              object base statistics
  :help               this help
  :quit               leave
?- B1 & ... & Bk .    query goal, answered against the current base
                      (demand-driven; never commits)
anything else: update-rules, applied as one transaction once a line
ends with `.`";

/// Run the REPL over arbitrary reader/writer (tests drive it with
/// buffers; `main` passes stdin/stdout).
pub fn run(
    input: impl BufRead,
    out: &mut impl Write,
    initial: Option<ObjectBase>,
) -> std::io::Result<()> {
    let mut db = Database::open(initial.unwrap_or_default());
    let mut savepoints: Vec<ruvo_core::SavepointId> = Vec::new();
    // One `:log` line per committed transaction: the database keeps
    // only its newest.
    let mut receipts: Vec<String> = Vec::new();
    let mut pending = String::new();

    writeln!(out, "ruvo repl — :help for commands")?;
    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(cmd) = trimmed.strip_prefix(':') {
            if !pending.is_empty() {
                writeln!(out, "! discarded incomplete rule input")?;
                pending.clear();
            }
            let mut parts = cmd.splitn(2, char::is_whitespace);
            let verb = parts.next().unwrap_or("");
            let arg = parts.next().map(str::trim).filter(|s| !s.is_empty());
            match (verb, arg) {
                ("quit" | "q" | "exit", _) => break,
                ("help" | "h", _) => writeln!(out, "{HELP}")?,
                ("show", None) => write!(out, "{}", db.current())?,
                ("show", Some(name)) => {
                    let base = oid(name);
                    let mut any = false;
                    for fact in db.current().facts_sorted() {
                        if fact.vid.base() == base {
                            writeln!(out, "{fact}")?;
                            any = true;
                        }
                    }
                    if !any {
                        writeln!(out, "! no facts for {name}")?;
                    }
                }
                ("stats", _) => writeln!(out, "{}", db.current().stats())?,
                ("log", _) => {
                    if receipts.is_empty() {
                        writeln!(out, "(no transactions)")?;
                    }
                    for receipt in &receipts {
                        writeln!(out, "{receipt}")?;
                    }
                }
                ("history", Some(name)) => match db.last_txn() {
                    None => writeln!(out, "! no transaction to inspect")?,
                    Some(txn) => match history(txn.outcome.result(), oid(name)) {
                        None => writeln!(out, "! no history for {name} in the last transaction")?,
                        Some(h) => {
                            for step in &h.steps {
                                let kind = step
                                    .kind
                                    .map_or("initial".to_string(), |k| k.keyword().to_string());
                                writeln!(out, "{} [{kind}]", step.vid)?;
                                for (m, args, r) in &step.added {
                                    if args.is_empty() {
                                        writeln!(out, "  + {m} -> {r}")?;
                                    } else {
                                        writeln!(out, "  + {m} @ {args} -> {r}")?;
                                    }
                                }
                                for (m, args, r) in &step.removed {
                                    if args.is_empty() {
                                        writeln!(out, "  - {m} -> {r}")?;
                                    } else {
                                        writeln!(out, "  - {m} @ {args} -> {r}")?;
                                    }
                                }
                            }
                        }
                    },
                },
                ("load", Some(path)) => match load_base(path) {
                    Ok(ob) => {
                        writeln!(out, "loaded {} ({})", path, ob.stats())?;
                        db = Database::open(ob);
                        savepoints.clear();
                        receipts.clear();
                    }
                    Err(e) => writeln!(out, "! {e}")?,
                },
                ("save", Some(arg)) => {
                    let (first, rest) = match arg.split_once(char::is_whitespace) {
                        Some((first, rest)) => (first, rest.trim()),
                        None => (arg, ""),
                    };
                    let (format, path) = match first {
                        "--bin" => (Some(SaveFormat::Binary), rest),
                        "--text" => (Some(SaveFormat::Text), rest),
                        _ => (None, arg),
                    };
                    if path.is_empty() {
                        writeln!(out, "! :save [--bin|--text] <file>")?;
                    } else {
                        match save_base_as(db.current(), path, format) {
                            Ok(written) => writeln!(out, "saved {path} ({written})")?,
                            Err(e) => writeln!(out, "! {e}")?,
                        }
                    }
                }
                ("run", Some(path)) => match std::fs::read_to_string(path) {
                    Err(e) => writeln!(out, "! cannot read {path}: {e}")?,
                    Ok(src) => apply(&mut db, &src, &mut receipts, out)?,
                },
                ("strata", Some(path)) => match std::fs::read_to_string(path) {
                    Err(e) => writeln!(out, "! cannot read {path}: {e}")?,
                    Ok(src) => match Program::parse(&src) {
                        Err(e) => writeln!(out, "! {e}")?,
                        Ok(p) => match ruvo_core::stratify::stratify(&p) {
                            Err(e) => writeln!(out, "! {e}")?,
                            Ok(s) => writeln!(out, "{s}")?,
                        },
                    },
                },
                ("check", Some(path)) => match std::fs::read_to_string(path) {
                    Err(e) => writeln!(out, "! cannot read {path}: {e}")?,
                    Ok(src) => {
                        let report =
                            ruvo_core::check::check_source(&src, ruvo_core::CyclePolicy::Reject);
                        if let Some((compiled, deps)) = &report.compiled {
                            writeln!(
                                out,
                                "{} rules, {} strata; commutativity: {}",
                                compiled.program().len(),
                                compiled.stratification().len(),
                                if deps.commutativity().all_commute() {
                                    "all same-stratum pairs commute"
                                } else {
                                    "some pairs conflict or are undecided"
                                }
                            )?;
                        }
                        if report.diagnostics.is_empty() {
                            writeln!(out, "ok: no diagnostics")?;
                        } else {
                            let rendered = ruvo_lang::analysis::render_all(
                                &report.diagnostics,
                                Some(&src),
                                Some(path),
                            );
                            write!(out, "{rendered}")?;
                        }
                    }
                },
                ("deps", Some(path)) => match std::fs::read_to_string(path) {
                    Err(e) => writeln!(out, "! cannot read {path}: {e}")?,
                    Ok(src) => {
                        let report =
                            ruvo_core::check::check_source(&src, ruvo_core::CyclePolicy::Reject);
                        match &report.compiled {
                            None => {
                                writeln!(out, "! program did not compile (:check for details)")?
                            }
                            Some((compiled, deps)) => {
                                write!(out, "{}", deps.to_text(compiled.program()))?;
                                if !report.advisories.is_empty() {
                                    let rendered = ruvo_lang::analysis::render_all(
                                        &report.advisories,
                                        Some(&src),
                                        Some(path),
                                    );
                                    write!(out, "{rendered}")?;
                                }
                            }
                        }
                    }
                },
                ("savepoint", _) => {
                    let id = db.savepoint();
                    savepoints.push(id);
                    writeln!(out, "savepoint {}", savepoints.len() - 1)?;
                }
                ("rollback", arg) => {
                    let idx = arg.and_then(|a| a.parse::<usize>().ok());
                    let target = match idx {
                        Some(i) => savepoints.get(i).copied(),
                        None => savepoints.last().copied(),
                    };
                    match target {
                        None => writeln!(out, "! no such savepoint")?,
                        Some(sp) => match db.rollback_to(sp) {
                            Ok(()) => {
                                receipts.truncate(db.len());
                                writeln!(out, "rolled back")?
                            }
                            Err(e) => writeln!(out, "! {e}")?,
                        },
                    }
                }
                (other, _) => writeln!(out, "! unknown command :{other} (:help)")?,
            }
            continue;
        }

        // Rule or goal input: accumulate until a line ends the
        // statement.
        pending.push_str(trimmed);
        pending.push('\n');
        if trimmed.ends_with('.') {
            let src = std::mem::take(&mut pending);
            if src.trim_start().starts_with("?-") {
                query(&db, &src, out)?;
            } else {
                apply(&mut db, &src, &mut receipts, out)?;
            }
        }
    }
    Ok(())
}

fn query(db: &Database, src: &str, out: &mut impl Write) -> std::io::Result<()> {
    let goal = match ruvo_lang::Goal::parse(src) {
        Ok(g) => g,
        Err(e) => return writeln!(out, "! {e}"),
    };
    // A goal over the empty update-program asks the committed base
    // itself (the demand rewrite degenerates to a direct match).
    match db.prepare("").and_then(|empty| db.query(&empty, goal)) {
        Ok(answers) => writeln!(out, "{answers}"),
        Err(e) => writeln!(out, "! {e}"),
    }
}

/// Apply `src` as one transaction, print its receipt and record it
/// for `:log`.
fn apply(
    db: &mut Database,
    src: &str,
    receipts: &mut Vec<String>,
    out: &mut impl Write,
) -> std::io::Result<()> {
    match db.apply_src(src) {
        Ok(txn) => {
            let (seq, stats, facts) = (txn.seq, txn.outcome.stats(), txn.facts_after);
            receipts.push(format!("#{seq}: {stats} — {facts} facts after"));
            writeln!(out, "ok: txn #{seq} — {stats} ({facts} facts now)")
        }
        Err(e) => writeln!(out, "! {e}"),
    }
}

/// Load a base from text or snapshot, sniffing the magic bytes.
pub fn load_base(path: &str) -> Result<ObjectBase, String> {
    let data = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if data.starts_with(b"RUVO") {
        return snapshot::read(&data).map_err(|e| format!("snapshot {path}: {e}"));
    }
    let text = String::from_utf8(data).map_err(|_| format!("{path}: not UTF-8"))?;
    ObjectBase::parse(&text).map_err(|e| e.to_string())
}

/// The two on-disk representations `:save`/`convert` can write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaveFormat {
    /// Checksummed binary snapshot.
    Binary,
    /// The textual interchange format.
    Text,
}

impl SaveFormat {
    fn describe(self) -> &'static str {
        match self {
            SaveFormat::Binary => "binary snapshot",
            SaveFormat::Text => "text",
        }
    }
}

/// Save as snapshot for `.snap`/`.ruvosnap` extensions, else text
/// (the extension-sniffing default; see [`save_base_as`] to force a
/// format explicitly).
pub fn save_base(ob: &ObjectBase, path: &str) -> Result<(), String> {
    save_base_as(ob, path, None).map(|_| ())
}

/// Save `ob` to `path`. `format` forces the representation; `None`
/// keeps the extension-sniffing default. Returns a human-readable
/// name of the format actually written, so callers can say what
/// happened instead of guessing.
pub fn save_base_as(
    ob: &ObjectBase,
    path: &str,
    format: Option<SaveFormat>,
) -> Result<&'static str, String> {
    let format = format.unwrap_or({
        if path.ends_with(".snap") || path.ends_with(".ruvosnap") {
            SaveFormat::Binary
        } else {
            SaveFormat::Text
        }
    });
    match format {
        SaveFormat::Binary => snapshot::save_file(ob, path).map_err(|e| e.to_string())?,
        SaveFormat::Text => {
            std::fs::write(path, ob.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?
        }
    }
    Ok(format.describe())
}

#[cfg(test)]
mod tests {
    #[test]
    fn log_lists_the_commits_that_survive() {
        let dir = std::env::temp_dir().join(format!("ruvo-repl-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("b.ob");
        std::fs::write(&base, "y.p -> 1.").unwrap();
        let script = format!(
            "ins[x].p -> 1.\n:savepoint\nins[x].q -> 2.\n:log\n:rollback 0\n:log\n\
             :history x\nins[x].r -> 3.\n:log\n:load {}\n:log\n:quit\n",
            base.display()
        );
        let mut out = Vec::new();
        super::run(script.as_bytes(), &mut out, None).unwrap();
        let out = String::from_utf8(out).unwrap();
        // The three listings, one `#seq:` line per surviving commit:
        // two, one after the rollback, two after the next commit.
        let receipts: Vec<&str> =
            out.lines().filter(|l| l.starts_with('#')).map(|l| &l[..3]).collect();
        assert_eq!(receipts, ["#0:", "#1:", "#0:", "#0:", "#1:"], "got: {out}");
        assert!(out.contains("! no transaction to inspect"), "got: {out}");
        assert!(out.ends_with("(no transactions)\n"), "a load clears the list; got: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
