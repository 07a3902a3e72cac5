//! Loads beside lookups over TCP. Connection A bulk-loads batches into a
//! table `x` while connection B runs a lookup corpus through the MONOMI
//! client and counts `x`. A load shares the server's database lock with
//! queries and each statement pins one catalog version, so:
//!
//! * every lookup answer equals the quiet server's;
//! * no count is torn — each is a whole number of batches, and a scalar
//!   subquery over `x` agrees with the outer scan of the same statement;
//! * once the loads are acknowledged, the count is exact.

use monomi_core::{ClientConfig, DesignStrategy, MonomiClient, ServerTransport, TcpTransport};
use monomi_engine::{ColumnDef, ColumnType, Database, ExecOptions, TableSchema, Value};
use monomi_server::{Server, ServerOptions};
use monomi_sql::parse_query;
use monomi_tpch::{datagen, queries};
use std::sync::atomic::{AtomicBool, Ordering};

const BATCH_ROWS: i64 = 250;
const BATCHES: i64 = 16;

/// Point and range lookups: (SQL, the plaintext table and column the keys
/// are drawn from, days spanned by a range — 0 for a point).
const LOOKUPS: [(&str, &str, &str, i32); 4] = [
    (
        "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = :1",
        "orders",
        "o_orderkey",
        0,
    ),
    (
        "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = :1",
        "customer",
        "c_custkey",
        0,
    ),
    (
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem \
         WHERE l_orderkey = :1",
        "lineitem",
        "l_orderkey",
        0,
    ),
    (
        "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate >= :1 AND o_orderdate < :2",
        "orders",
        "o_orderdate",
        7,
    ),
];

fn small_plain() -> Database {
    datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.001,
        seed: 99,
    })
}

/// Each lookup bound to keys of three generated rows.
fn lookup_corpus(plain: &Database) -> Vec<(&'static str, Vec<Value>)> {
    let mut corpus = Vec::new();
    for (sql, table, column, days) in LOOKUPS {
        let table = plain.table(table).expect("TPC-H table");
        let column = table.schema().column_index(column).expect("key column");
        for row in [0, table.row_count() / 2, table.row_count() - 1] {
            let params = match (table.value(row, column), days) {
                (key, 0) => vec![key],
                (Value::Date(day), days) => vec![Value::Date(day), Value::Date(day + days)],
                (other, _) => panic!("range over a non-date key {other:?}"),
            };
            corpus.push((sql, params));
        }
    }
    corpus
}

/// The client B uses: the designer sees the TPC-H workload plus the lookups.
fn lookup_client(plain: &Database, addr: &str, corpus: &[(&str, Vec<Value>)]) -> MonomiClient {
    let mut workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    for (sql, params) in corpus {
        let parsed = parse_query(sql).expect("lookup parses");
        workload.push(monomi_core::cost::bind_params(&parsed, params));
    }
    let config = ClientConfig {
        paillier_bits: 256,
        space_budget: Some(2.0),
        skip_profiling: true,
        exec_options: Some(ExecOptions::serial()),
        server_addr: Some(addr.to_string()),
        ..Default::default()
    };
    MonomiClient::setup(plain, &workload, DesignStrategy::Designer, &config)
        .expect("tcp setup")
        .0
}

fn lookup_rows(client: &MonomiClient, sql: &str, params: &[Value]) -> String {
    let (rs, _) = client
        .execute(sql, params)
        .unwrap_or_else(|e| panic!("{sql} {params:?}: {e}"));
    let mut rows = rs.rows;
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    format!("{rows:?}")
}

/// Counts `x` three times in one statement — the outer scan, an IN
/// subquery and a scalar subquery — checks the counts equal and whole
/// batches, and returns the count.
fn count_x(transport: &dyn ServerTransport) -> i64 {
    let query = parse_query(
        "SELECT COUNT(*), (SELECT COUNT(*) FROM x) FROM x WHERE k IN (SELECT k FROM x)",
    )
    .expect("count parses");
    let rows = transport
        .execute(&query, &ExecOptions::serial())
        .expect("count runs")
        .result
        .rows;
    let (outer, inner) = (rows[0][0].as_int(), rows[0][1].as_int());
    assert_eq!(outer, inner, "one statement saw two versions of x");
    let count = outer.expect("an integer count");
    assert_eq!(count % BATCH_ROWS, 0, "a torn load: {count} rows");
    count
}

/// Sets the flag when dropped, so a panicking loader still stops the reader.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The whole scenario against the server at `addr`.
fn loads_beside_lookups(addr: &str) {
    let plain = small_plain();
    let corpus = lookup_corpus(&plain);
    let reader = lookup_client(&plain, addr, &corpus);
    let quiet: Vec<String> = corpus
        .iter()
        .map(|(sql, params)| lookup_rows(&reader, sql, params))
        .collect();

    let mut loader = TcpTransport::connect(addr).expect("loader connects");
    let schema = TableSchema::new(
        "x",
        vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Bytes),
        ],
    );
    loader.create_table(&schema, &[]).expect("create x");
    let done = AtomicBool::new(false);
    let mut rounds = 0usize;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _done = SetOnDrop(&done);
            for batch in 0..BATCHES {
                let rows = (0..BATCH_ROWS)
                    .map(|i| {
                        let k = batch * BATCH_ROWS + i;
                        vec![Value::Int(k), Value::Bytes(k.to_le_bytes().to_vec())]
                    })
                    .collect();
                loader.bulk_load("x", rows).expect("batch loads");
            }
        });
        // One lookup, then one count, cycling through the corpus.
        for ((sql, params), expected) in corpus.iter().zip(&quiet).cycle() {
            if done.load(Ordering::SeqCst) {
                break;
            }
            assert_eq!(
                &lookup_rows(&reader, sql, params),
                expected,
                "{sql} {params:?} beside a load"
            );
            count_x(reader.server_transport());
            rounds += 1;
        }
    });
    assert!(rounds > 0, "no lookup ran beside the loads");
    assert_eq!(count_x(reader.server_transport()), BATCH_ROWS * BATCHES);
}

fn spawn_server(db: Database) -> monomi_server::ServerHandle {
    Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 16,
            ..Default::default()
        },
        db,
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn server")
}

/// The default database (memory-backed unless `MONOMI_STORAGE=disk`), and
/// an explicitly disk-backed one, so the store path runs in every leg.
#[test]
fn loads_beside_lookups_tear_nothing() {
    let server = spawn_server(Database::new());
    loads_beside_lookups(&server.addr().to_string());

    let dir = std::env::temp_dir().join(format!("monomi-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = spawn_server(Database::open(&dir).expect("store opens"));
    loads_beside_lookups(&server.addr().to_string());
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI run against an externally started `monomi-server` binary (a fresh one:
/// the setup creates tables): set `MONOMI_SERVER=host:port` and run with
/// `--ignored`.
#[test]
#[ignore = "needs MONOMI_SERVER pointing at a running monomi-server"]
fn loads_beside_lookups_against_external_server() {
    let addr = std::env::var("MONOMI_SERVER").expect("MONOMI_SERVER=host:port");
    loads_beside_lookups(&addr);
}
