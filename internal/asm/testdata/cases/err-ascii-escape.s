	.asciz "a\qb"
