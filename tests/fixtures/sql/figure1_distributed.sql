-- repro sql backend
-- plan digest: 329621277a3f0c8c
-- query: SELECT EMP.NAME, EMP.ADDRESS, DEPT.MGR FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'
-- note: SHIP N.Y. -> L.A. collapsed: emitted SQL runs single-site
-- note: STORE materialized as CTE temp_2f79fa871df726f7
-- note: JOIN(HA) lowered to a predicate join: the merge/hash physical strategy does not change the row set
WITH temp_2f79fa871df726f7 AS (SELECT s3."DEPT.DNO" AS "DEPT.DNO", s3."DEPT.MGR" AS "DEPT.MGR" FROM (SELECT t2."DNO" AS "DEPT.DNO", t2."MGR" AS "DEPT.MGR" FROM "DEPT" AS t2 WHERE (t2."MGR" IS NOT NULL AND t2."MGR" = 'Haas')) AS s3) SELECT q."EMP.NAME" AS "NAME", q."EMP.ADDRESS" AS "ADDRESS", q."DEPT.MGR" AS "MGR" FROM (SELECT b6."DEPT.DNO" AS "DEPT.DNO", b6."DEPT.MGR" AS "DEPT.MGR", a5."EMP.ADDRESS" AS "EMP.ADDRESS", a5."EMP.DNO" AS "EMP.DNO", a5."EMP.NAME" AS "EMP.NAME" FROM (SELECT t1."ADDRESS" AS "EMP.ADDRESS", t1."DNO" AS "EMP.DNO", t1."NAME" AS "EMP.NAME" FROM "EMP" AS t1) AS a5, (SELECT s4."DEPT.DNO" AS "DEPT.DNO", s4."DEPT.MGR" AS "DEPT.MGR" FROM temp_2f79fa871df726f7 AS s4) AS b6 WHERE (b6."DEPT.DNO" IS NOT NULL AND a5."EMP.DNO" IS NOT NULL AND b6."DEPT.DNO" = a5."EMP.DNO")) AS q;
