	.asciz "a\"
