_start:
	beqz a0
