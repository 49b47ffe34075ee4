"""The 22 TPC-H queries over the mini relational-algebra engine.

Each query is a function ``db -> Table`` written against
:class:`~repro.analytics.relalg.Table`, semantically faithful to the TPC-H
specification (with the simplified 360-day calendar of the generator).
``QueryMeta`` carries what the offload engine needs: which tables are
scanned and how much of ``lineitem`` survives the pushed-down
Parse/Select/Filter pipeline (row selectivity x column fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.analytics.relalg import Table
from repro.analytics.schema import date_to_day
from repro.errors import AnalyticsError


def _rev(row) -> float:
    """Revenue: extendedprice * (1 - discount); discount is in percent."""
    return row["l_extendedprice"] * (100 - row["l_discount"]) / 100.0


def _year(day: int) -> int:
    return 1992 + day // 360


@dataclass(frozen=True)
class QueryMeta:
    """Offload-relevant shape of one query."""

    number: int
    tables: Tuple[str, ...]
    lineitem_row_selectivity: float = 1.0  # rows surviving the pushed filter
    lineitem_col_fraction: float = 1.0  # width kept by the pushed select

    @property
    def uses_lineitem(self) -> bool:
        return "lineitem" in self.tables


# ---------------------------------------------------------------------------


def q1(db) -> Table:
    """Pricing summary report: aggregates over nearly all of lineitem."""
    cutoff = date_to_day(1998, 9, 2)
    li = db["lineitem"].filter(lambda r: r["l_shipdate"] <= cutoff)
    return li.group_by(
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("sum", lambda r: r["l_quantity"]),
            "sum_base_price": ("sum", lambda r: r["l_extendedprice"]),
            "sum_disc_price": ("sum", _rev),
            "sum_charge": ("sum", lambda r: _rev(r) * (100 + r["l_tax"]) / 100.0),
            "avg_qty": ("avg", lambda r: r["l_quantity"]),
            "avg_price": ("avg", lambda r: r["l_extendedprice"]),
            "avg_disc": ("avg", lambda r: r["l_discount"]),
            "count_order": ("count", None),
        },
    ).order_by([("l_returnflag", False), ("l_linestatus", False)])


def q2(db) -> Table:
    """Minimum-cost supplier for brass parts of size 15 in Europe."""
    europe = db["region"].filter_eq("r_name", "EUROPE")
    nations = db["nation"].join(europe, "n_regionkey", "r_regionkey")
    suppliers = db["supplier"].join(nations, "s_nationkey", "n_nationkey")
    parts = db["part"].filter(lambda r: r["p_size"] == 15 and r["p_type"].endswith("BRASS"))
    ps = db["partsupp"].join(parts, "ps_partkey", "p_partkey")
    ps = ps.join(suppliers, "ps_suppkey", "s_suppkey")
    min_cost = ps.group_by(["ps_partkey"], {"min_cost": ("min", lambda r: r["ps_supplycost"])})
    joined = ps.join(min_cost, "ps_partkey", "ps_partkey").filter(
        lambda r: r["ps_supplycost"] == r["min_cost"]
    )
    return joined.project(
        ["s_acctbal", "s_name", "n_name", "ps_partkey", "p_mfgr", "s_address", "s_phone"]
    ).order_by([("s_acctbal", True), ("n_name", False), ("s_name", False)]).limit(100)


def q3(db) -> Table:
    """Top 10 unshipped orders by revenue for the BUILDING segment."""
    cutoff = date_to_day(1995, 3, 15)
    cust = db["customer"].filter_eq("c_mktsegment", "BUILDING")
    orders = db["orders"].filter(lambda r: r["o_orderdate"] < cutoff)
    orders = orders.join(cust, "o_custkey", "c_custkey", how="semi")
    li = db["lineitem"].filter(lambda r: r["l_shipdate"] > cutoff)
    joined = li.join(orders, "l_orderkey", "o_orderkey")
    return joined.group_by(
        ["l_orderkey", "o_orderdate", "o_shippriority"],
        {"revenue": ("sum", _rev)},
    ).order_by([("revenue", True), ("o_orderdate", False)]).limit(10)


def q4(db) -> Table:
    """Order-priority checking: late lineitems per priority class."""
    lo = date_to_day(1993, 7, 1)
    orders = db["orders"].filter(lambda r: lo <= r["o_orderdate"] < lo + 90)
    late = db["lineitem"].filter(lambda r: r["l_commitdate"] < r["l_receiptdate"])
    qualifying = orders.join(late, "o_orderkey", "l_orderkey", how="semi")
    return qualifying.group_by(
        ["o_orderpriority"], {"order_count": ("count", None)}
    ).order_by([("o_orderpriority", False)])


def q5(db) -> Table:
    """Local supplier volume: revenue by Asian nation, 1994."""
    lo = date_to_day(1994, 1, 1)
    asia = db["region"].filter_eq("r_name", "ASIA")
    nations = db["nation"].join(asia, "n_regionkey", "r_regionkey")
    cust = db["customer"].join(nations, "c_nationkey", "n_nationkey")
    orders = db["orders"].filter(lambda r: lo <= r["o_orderdate"] < lo + 360)
    orders = orders.join(cust, "o_custkey", "c_custkey")
    li = db["lineitem"].join(orders, "l_orderkey", "o_orderkey")
    supp = db["supplier"]
    joined = li.join(supp, "l_suppkey", "s_suppkey").filter(
        lambda r: r["s_nationkey"] == r["c_nationkey"]
    )
    return joined.group_by(["n_name"], {"revenue": ("sum", _rev)}).order_by(
        [("revenue", True)]
    )


def q6(db) -> Table:
    """Forecasting revenue change: the classic selective lineitem filter."""
    lo = date_to_day(1994, 1, 1)
    li = db["lineitem"].filter(
        lambda r: lo <= r["l_shipdate"] < lo + 360
        and 5 <= r["l_discount"] <= 7
        and r["l_quantity"] < 24
    )
    return li.group_by(
        [], {"revenue": ("sum", lambda r: r["l_extendedprice"] * r["l_discount"] / 100.0)}
    )


def q7(db) -> Table:
    """Volume shipping between France and Germany by year."""
    lo, hi = date_to_day(1995, 1, 1), date_to_day(1996, 12, 30)
    li = db["lineitem"].filter(lambda r: lo <= r["l_shipdate"] <= hi)
    li = li.join(db["supplier"], "l_suppkey", "s_suppkey")
    li = li.join(db["nation"].project(["n_nationkey", "n_name"]), "s_nationkey", "n_nationkey")
    li = li.extend("supp_nation", lambda r: r["n_name"])
    orders = db["orders"].join(db["customer"], "o_custkey", "c_custkey")
    cnation = db["nation"].project(["n_nationkey", "n_name"])
    cnation.columns["cn_nationkey"] = cnation.columns.pop("n_nationkey")
    cnation.columns["cust_nation"] = cnation.columns.pop("n_name")
    orders = orders.join(cnation, "c_nationkey", "cn_nationkey")
    joined = li.join(orders, "l_orderkey", "o_orderkey")
    joined = joined.filter(
        lambda r: (r["supp_nation"], r["cust_nation"]) in (
            ("FRANCE", "GERMANY"), ("GERMANY", "FRANCE"))
    )
    joined = joined.extend("l_year", lambda r: _year(r["l_shipdate"]))
    return joined.group_by(
        ["supp_nation", "cust_nation", "l_year"], {"revenue": ("sum", _rev)}
    ).order_by([("supp_nation", False), ("cust_nation", False), ("l_year", False)])


def q8(db) -> Table:
    """Brazil's market share of ECONOMY ANODIZED STEEL in America."""
    lo, hi = date_to_day(1995, 1, 1), date_to_day(1996, 12, 30)
    america = db["region"].filter_eq("r_name", "AMERICA")
    nations = db["nation"].join(america, "n_regionkey", "r_regionkey")
    cust = db["customer"].join(nations, "c_nationkey", "n_nationkey")
    orders = db["orders"].filter(lambda r: lo <= r["o_orderdate"] <= hi)
    orders = orders.join(cust, "o_custkey", "c_custkey", how="semi")
    parts = db["part"].filter_eq("p_type", "ECONOMY ANODIZED STEEL")
    li = db["lineitem"].join(parts, "l_partkey", "p_partkey", how="semi")
    li = li.join(orders.project(["o_orderkey", "o_orderdate"]), "l_orderkey", "o_orderkey")
    supp_nation = db["nation"].project(["n_nationkey", "n_name"])
    li = li.join(db["supplier"].project(["s_suppkey", "s_nationkey"]), "l_suppkey", "s_suppkey")
    li = li.join(supp_nation, "s_nationkey", "n_nationkey")
    li = li.extend("o_year", lambda r: _year(r["o_orderdate"]))
    li = li.extend("volume", _rev)
    li = li.extend("brazil", lambda r: _rev(r) if r["n_name"] == "BRAZIL" else 0.0)
    out = li.group_by(
        ["o_year"],
        {"total": ("sum", lambda r: r["volume"]), "brazil_vol": ("sum", lambda r: r["brazil"])},
    )
    out = out.extend("mkt_share", lambda r: r["brazil_vol"] / r["total"] if r["total"] else 0.0)
    return out.project(["o_year", "mkt_share"]).order_by([("o_year", False)])


def q9(db) -> Table:
    """Product-type profit for green parts, by nation and year."""
    parts = db["part"].filter(lambda r: "green" in r["p_name"])
    li = db["lineitem"].join(parts.project(["p_partkey"]), "l_partkey", "p_partkey", how="semi")
    li = li.join(db["supplier"].project(["s_suppkey", "s_nationkey"]), "l_suppkey", "s_suppkey")
    li = li.join(db["nation"].project(["n_nationkey", "n_name"]), "s_nationkey", "n_nationkey")
    ps = db["partsupp"].project(["ps_partkey", "ps_suppkey", "ps_supplycost"])
    ps = ps.extend("ps_key", lambda r: (r["ps_partkey"], r["ps_suppkey"]))
    li = li.extend("ps_key", lambda r: (r["l_partkey"], r["l_suppkey"]))
    li = li.join(ps.project(["ps_key", "ps_supplycost"]), "ps_key", "ps_key")
    orders = db["orders"].project(["o_orderkey", "o_orderdate"])
    li = li.join(orders, "l_orderkey", "o_orderkey")
    li = li.extend("o_year", lambda r: _year(r["o_orderdate"]))
    li = li.extend(
        "amount", lambda r: _rev(r) - r["ps_supplycost"] * r["l_quantity"] / 100.0
    )
    return li.group_by(
        ["n_name", "o_year"], {"sum_profit": ("sum", lambda r: r["amount"])}
    ).order_by([("n_name", False), ("o_year", True)])


def q10(db) -> Table:
    """Top 20 customers by returned-item revenue, Q4 1993."""
    lo = date_to_day(1993, 10, 1)
    orders = db["orders"].filter(lambda r: lo <= r["o_orderdate"] < lo + 90)
    li = db["lineitem"].filter_eq("l_returnflag", "R")
    joined = li.join(orders.project(["o_orderkey", "o_custkey"]), "l_orderkey", "o_orderkey")
    joined = joined.join(db["customer"], "o_custkey", "c_custkey")
    joined = joined.join(db["nation"].project(["n_nationkey", "n_name"]), "c_nationkey", "n_nationkey")
    return joined.group_by(
        ["c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"],
        {"revenue": ("sum", _rev)},
    ).order_by([("revenue", True)]).limit(20)


def q11(db) -> Table:
    """Important stock: Germany's high-value partsupp holdings."""
    germany = db["nation"].filter_eq("n_name", "GERMANY")
    supp = db["supplier"].join(germany, "s_nationkey", "n_nationkey", how="semi")
    ps = db["partsupp"].join(supp.project(["s_suppkey"]), "ps_suppkey", "s_suppkey", how="semi")
    ps = ps.extend("value", lambda r: r["ps_supplycost"] * r["ps_availqty"])
    total = sum(ps.column("value")) if len(ps) else 0
    grouped = ps.group_by(["ps_partkey"], {"value": ("sum", lambda r: r["value"])})
    threshold = total * 0.0001
    return grouped.filter(lambda r: r["value"] > threshold).order_by([("value", True)])


def q12(db) -> Table:
    """Shipping-mode and order-priority split for MAIL/SHIP lines."""
    lo = date_to_day(1994, 1, 1)
    li = db["lineitem"].filter(
        lambda r: r["l_shipmode"] in ("MAIL", "SHIP")
        and r["l_commitdate"] < r["l_receiptdate"]
        and r["l_shipdate"] < r["l_commitdate"]
        and lo <= r["l_receiptdate"] < lo + 360
    )
    joined = li.join(db["orders"].project(["o_orderkey", "o_orderpriority"]), "l_orderkey", "o_orderkey")
    joined = joined.extend(
        "high", lambda r: 1 if r["o_orderpriority"] in ("1-URGENT", "2-HIGH") else 0
    )
    return joined.group_by(
        ["l_shipmode"],
        {
            "high_line_count": ("sum", lambda r: r["high"]),
            "low_line_count": ("sum", lambda r: 1 - r["high"]),
        },
    ).order_by([("l_shipmode", False)])


def q13(db) -> Table:
    """Customer distribution by order count (anti-join for zeros)."""
    orders = db["orders"].filter(lambda r: "special" not in r["o_comment"])
    counts = orders.group_by(["o_custkey"], {"c_count": ("count", None)})
    cust = db["customer"].project(["c_custkey"])
    with_orders = cust.join(counts, "c_custkey", "o_custkey")
    without = cust.join(counts, "c_custkey", "o_custkey", how="anti")
    without.columns["c_count"] = [0] * without.nrows
    combined_counts = with_orders.column("c_count") + without.column("c_count")
    merged = Table("q13", {"c_count": list(combined_counts)})
    merged.stats.merge(with_orders.stats)
    return merged.group_by(["c_count"], {"custdist": ("count", None)}).order_by(
        [("custdist", True), ("c_count", True)]
    )


def q14(db) -> Table:
    """Promotion effect: share of PROMO revenue in one month."""
    lo = date_to_day(1995, 9, 1)
    li = db["lineitem"].filter(lambda r: lo <= r["l_shipdate"] < lo + 30)
    li = li.join(db["part"].project(["p_partkey", "p_type"]), "l_partkey", "p_partkey")
    li = li.extend("promo", lambda r: _rev(r) if r["p_type"].startswith("PROMO") else 0.0)
    out = li.group_by(
        [], {"promo": ("sum", lambda r: r["promo"]), "total": ("sum", _rev)}
    )
    return out.extend(
        "promo_revenue", lambda r: 100.0 * r["promo"] / r["total"] if r["total"] else 0.0
    ).project(["promo_revenue"])


def q15(db) -> Table:
    """Top supplier by revenue in a quarter."""
    lo = date_to_day(1996, 1, 1)
    li = db["lineitem"].filter(lambda r: lo <= r["l_shipdate"] < lo + 90)
    revenue = li.group_by(["l_suppkey"], {"total_revenue": ("sum", _rev)})
    top = max(revenue.column("total_revenue"), default=0.0)
    best = revenue.filter(lambda r: r["total_revenue"] == top)
    return best.join(
        db["supplier"].project(["s_suppkey", "s_name", "s_address", "s_phone"]),
        "l_suppkey",
        "s_suppkey",
    ).order_by([("l_suppkey", False)])


def q16(db) -> Table:
    """Supplier counts per part attribute, excluding complainers."""
    complaints = db["supplier"].filter(lambda r: "Customer Complaints" in r["s_comment"])
    parts = db["part"].filter(
        lambda r: r["p_brand"] != "Brand#45"
        and not r["p_type"].startswith("MEDIUM POLISHED")
        and r["p_size"] in (49, 14, 23, 45, 19, 3, 36, 9)
    )
    ps = db["partsupp"].join(parts, "ps_partkey", "p_partkey")
    ps = ps.join(complaints.project(["s_suppkey"]), "ps_suppkey", "s_suppkey", how="anti")
    distinct = ps.distinct(["p_brand", "p_type", "p_size", "ps_suppkey"])
    return distinct.group_by(
        ["p_brand", "p_type", "p_size"], {"supplier_cnt": ("count", None)}
    ).order_by([("supplier_cnt", True), ("p_brand", False), ("p_type", False), ("p_size", False)])


def q17(db) -> Table:
    """Small-quantity-order revenue for Brand#23 MED BOX parts."""
    parts = db["part"].filter(
        lambda r: r["p_brand"] == "Brand#23" and r["p_container"] == "MED BOX"
    )
    li = db["lineitem"].join(parts.project(["p_partkey"]), "l_partkey", "p_partkey")
    if not len(li):
        return li.group_by([], {"avg_yearly": ("sum", lambda r: 0)})
    avg_qty = li.group_by(["p_partkey"], {"avg_q": ("avg", lambda r: r["l_quantity"])})
    li = li.join(avg_qty, "p_partkey", "p_partkey")
    small = li.filter(lambda r: r["l_quantity"] < 0.2 * r["avg_q"])
    return small.group_by(
        [], {"avg_yearly": ("sum", lambda r: r["l_extendedprice"] / 7.0)}
    )


def q18(db) -> Table:
    """Large-volume customers: orders totalling over 300 units."""
    per_order = db["lineitem"].group_by(
        ["l_orderkey"], {"sum_qty": ("sum", lambda r: r["l_quantity"])}
    )
    big = per_order.filter(lambda r: r["sum_qty"] > 300)
    orders = db["orders"].join(big, "o_orderkey", "l_orderkey")
    orders = orders.join(db["customer"].project(["c_custkey", "c_name"]), "o_custkey", "c_custkey")
    return orders.project(
        ["c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"]
    ).order_by([("o_totalprice", True), ("o_orderdate", False)]).limit(100)


def q19(db) -> Table:
    """Discounted revenue for three brand/container/quantity shapes."""
    li = db["lineitem"].filter(
        lambda r: r["l_shipmode"] in ("AIR", "REG AIR")
        and r["l_shipinstruct"] == "DELIVER IN PERSON"
    )
    li = li.join(
        db["part"].project(["p_partkey", "p_brand", "p_container", "p_size"]),
        "l_partkey",
        "p_partkey",
    )

    def qualifies(r) -> bool:
        if r["p_brand"] == "Brand#12" and r["p_container"].startswith("SM"):
            return 1 <= r["l_quantity"] <= 11 and 1 <= r["p_size"] <= 5
        if r["p_brand"] == "Brand#23" and r["p_container"].startswith("MED"):
            return 10 <= r["l_quantity"] <= 20 and 1 <= r["p_size"] <= 10
        if r["p_brand"] == "Brand#34" and r["p_container"].startswith("LG"):
            return 20 <= r["l_quantity"] <= 30 and 1 <= r["p_size"] <= 15
        return False

    return li.filter(qualifies).group_by([], {"revenue": ("sum", _rev)})


def q20(db) -> Table:
    """Canadian suppliers with excess stock of forest parts, 1994."""
    lo = date_to_day(1994, 1, 1)
    forest_parts = db["part"].filter(lambda r: r["p_name"].startswith("forest"))
    li = db["lineitem"].filter(lambda r: lo <= r["l_shipdate"] < lo + 360)
    li = li.extend("ps_key", lambda r: (r["l_partkey"], r["l_suppkey"]))
    shipped = li.group_by(["ps_key"], {"qty": ("sum", lambda r: r["l_quantity"])})
    ps = db["partsupp"].join(forest_parts.project(["p_partkey"]), "ps_partkey", "p_partkey", how="semi")
    ps = ps.extend("ps_key", lambda r: (r["ps_partkey"], r["ps_suppkey"]))
    ps = ps.join(shipped, "ps_key", "ps_key")
    excess = ps.filter(lambda r: r["ps_availqty"] > 0.5 * r["qty"])
    canada = db["nation"].filter_eq("n_name", "CANADA")
    supp = db["supplier"].join(canada, "s_nationkey", "n_nationkey", how="semi")
    supp = supp.join(excess.project(["ps_suppkey"]), "s_suppkey", "ps_suppkey", how="semi")
    return supp.project(["s_name", "s_address"]).order_by([("s_name", False)])


def q21(db) -> Table:
    """Suppliers who kept multi-supplier orders waiting (Saudi Arabia)."""
    saudi = db["nation"].filter_eq("n_name", "SAUDI ARABIA")
    supp = db["supplier"].join(saudi, "s_nationkey", "n_nationkey", how="semi")
    li = db["lineitem"].project(
        ["l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"]
    )
    late = li.filter(lambda r: r["l_receiptdate"] > r["l_commitdate"])
    # Orders with more than one distinct supplier, where only this one is late.
    supp_count = li.distinct(["l_orderkey", "l_suppkey"]).group_by(
        ["l_orderkey"], {"n_supp": ("count", None)}
    )
    late_count = late.distinct(["l_orderkey", "l_suppkey"]).group_by(
        ["l_orderkey"], {"n_late": ("count", None)}
    )
    failed = db["orders"].filter_eq("o_orderstatus", "F").project(["o_orderkey"])
    candidates = late.join(supp.project(["s_suppkey", "s_name"]), "l_suppkey", "s_suppkey")
    candidates = candidates.join(failed, "l_orderkey", "o_orderkey", how="semi")
    candidates = candidates.join(supp_count, "l_orderkey", "l_orderkey")
    candidates = candidates.join(late_count, "l_orderkey", "l_orderkey")
    candidates = candidates.filter(lambda r: r["n_supp"] > 1 and r["n_late"] == 1)
    return candidates.group_by(["s_name"], {"numwait": ("count", None)}).order_by(
        [("numwait", True), ("s_name", False)]
    ).limit(100)


def q22(db) -> Table:
    """Global sales opportunity: rich customers with no orders."""
    codes = ("13", "31", "23", "29", "30", "18", "17")
    cust = db["customer"].extend("cntrycode", lambda r: r["c_phone"][:2])
    cust = cust.filter(lambda r: r["cntrycode"] in codes)
    positive = cust.filter(lambda r: r["c_acctbal"] > 0)
    avg_bal = (
        sum(positive.column("c_acctbal")) / len(positive) if len(positive) else 0.0
    )
    rich = cust.filter(lambda r: r["c_acctbal"] > avg_bal)
    no_orders = rich.join(db["orders"].project(["o_custkey"]), "c_custkey", "o_custkey", how="anti")
    return no_orders.group_by(
        ["cntrycode"],
        {"numcust": ("count", None), "totacctbal": ("sum", lambda r: r["c_acctbal"])},
    ).order_by([("cntrycode", False)])


# ---------------------------------------------------------------------------

QUERIES: Dict[int, Callable[[Dict[str, Table]], Table]] = {
    i + 1: fn
    for i, fn in enumerate(
        [q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16, q17,
         q18, q19, q20, q21, q22]
    )
}

# Pushdown shapes: row selectivity of the lineitem filter the device can
# evaluate, and the fraction of the row width the pushed projection keeps.
_META: Dict[int, QueryMeta] = {
    1: QueryMeta(1, ("lineitem",), 0.95, 7 / 16),
    2: QueryMeta(2, ("part", "partsupp", "supplier", "nation", "region")),
    3: QueryMeta(3, ("customer", "orders", "lineitem"), 0.55, 4 / 16),
    4: QueryMeta(4, ("orders", "lineitem"), 0.60, 3 / 16),
    5: QueryMeta(5, ("region", "nation", "customer", "orders", "lineitem", "supplier"), 1.0, 4 / 16),
    6: QueryMeta(6, ("lineitem",), 0.02, 3 / 16),
    7: QueryMeta(7, ("supplier", "lineitem", "orders", "customer", "nation"), 0.30, 5 / 16),
    8: QueryMeta(8, ("part", "supplier", "lineitem", "orders", "customer", "nation", "region"), 0.30, 5 / 16),
    9: QueryMeta(9, ("part", "supplier", "lineitem", "partsupp", "orders", "nation"), 1.0, 6 / 16),
    10: QueryMeta(10, ("customer", "orders", "lineitem", "nation"), 0.25, 4 / 16),
    11: QueryMeta(11, ("partsupp", "supplier", "nation")),
    12: QueryMeta(12, ("orders", "lineitem"), 0.05, 4 / 16),
    13: QueryMeta(13, ("customer", "orders")),
    14: QueryMeta(14, ("lineitem", "part"), 0.012, 4 / 16),
    15: QueryMeta(15, ("supplier", "lineitem"), 0.035, 4 / 16),
    16: QueryMeta(16, ("partsupp", "part", "supplier")),
    17: QueryMeta(17, ("lineitem", "part"), 1.0, 4 / 16),
    18: QueryMeta(18, ("customer", "orders", "lineitem"), 1.0, 2 / 16),
    19: QueryMeta(19, ("lineitem", "part"), 0.08, 6 / 16),
    20: QueryMeta(20, ("supplier", "nation", "partsupp", "lineitem", "part"), 0.15, 4 / 16),
    21: QueryMeta(21, ("supplier", "lineitem", "orders", "nation"), 0.50, 4 / 16),
    22: QueryMeta(22, ("customer", "orders")),
}


def query_meta(number: int) -> QueryMeta:
    """Offload-relevant metadata for query ``number`` (1..22)."""
    try:
        return _META[number]
    except KeyError:
        raise AnalyticsError(f"query {number} out of range 1..22") from None


def run_query(db: Dict[str, Table], number: int) -> Table:
    """Execute TPC-H query ``number`` against ``db``."""
    try:
        fn = QUERIES[number]
    except KeyError:
        raise AnalyticsError(f"query {number} out of range 1..22") from None
    return fn(db)


def query_numbers() -> List[int]:
    """All implemented query numbers, ascending."""
    return sorted(QUERIES)
